import numpy as np
import pytest

from mtot import (
    ConfigError,
    Dataset,
    FitConfig,
    NumericalError,
    SimSpec,
    assemble_coefficients,
    fit,
    generate,
    loss,
    predict,
    smspe,
)
from mtot.solver import (
    _init_output_bases,
    _input_bases,
    _resolve_rank,
    input_projection,
    update_basis,
    update_core,
)
from mtot.tensor import fold, kronecker, mode_product, unfold, unfold_general
from reference_als import reference_als, reference_predict


def small_dataset(seed=0, m=12):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((m, 6, 5))
    xs = [rng.standard_normal((m, 7)), rng.standard_normal((m, 4, 3))]
    return Dataset(y, xs)


# ---------------------------------------------------------------------------
# input_projection
# ---------------------------------------------------------------------------

def test_projection_identity_factors():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 5, 6))
    z = input_projection(x, [np.eye(5), np.eye(6)])
    assert np.array_equal(z, unfold(x, 0))


def test_projection_zero_factors():
    x = np.ones((4, 5))
    assert np.array_equal(input_projection(x, [np.zeros((5, 2))]), np.zeros((4, 2)))


def test_projection_matches_kronecker_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 5, 6))
    u1, u2 = rng.standard_normal((5, 2)), rng.standard_normal((6, 2))
    z = input_projection(x, [u1, u2])
    expected = unfold(x, 0) @ kronecker(u2, u1)
    assert np.allclose(z, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# update_core
# ---------------------------------------------------------------------------

def test_update_core_zero_residual():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((8, 3))
    v = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    core = update_core(np.zeros((8, 4)), z, [v])
    assert np.array_equal(core, np.zeros((3, 2)))


def test_update_core_orthonormal_scores_projection():
    rng = np.random.default_rng(4)
    z = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    r = rng.standard_normal((8, 4))
    core = update_core(r, z, [np.eye(4)])
    assert np.allclose(core, z.T @ r, rtol=1e-12)


def test_update_core_matches_vectorized_least_squares():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((8, 3))
    y = rng.standard_normal((8, 4, 3))
    v1 = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    v2 = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    core = update_core(y, z, [v1, v2])
    design = kronecker(v2, kronecker(v1, z))
    target = unfold_general(y, (0, 1), (2,)).reshape(-1, order="F")
    sol = np.linalg.lstsq(design, target, rcond=None)[0]
    assert np.allclose(core, sol.reshape((3, 2, 2), order="F"), atol=1e-8)


def test_update_core_rank_deficient_scores():
    rng = np.random.default_rng(6)
    z = np.ones((8, 3))  # rank one
    y = rng.standard_normal((8, 4))
    core = update_core(y, z, [np.eye(4)])
    assert np.isfinite(core).all()


# ---------------------------------------------------------------------------
# update_basis
# ---------------------------------------------------------------------------

def _procrustes_loss(y, cores, scores, bases, mode, candidate):
    trial = list(bases)
    trial[mode] = candidate
    total = np.zeros_like(y)
    for core, z in zip(cores, scores):
        t = mode_product(core, z, 0)
        for i, v in enumerate(trial):
            t = mode_product(t, v, i + 1)
        total += t
    return float(np.vdot(y - total, y - total))


def test_update_basis_polar_case_orthonormal():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((10, 4, 3))
    z = rng.standard_normal((10, 2))
    cores = [rng.standard_normal((2, 4, 3))]
    bases = [np.eye(4), np.eye(3)]
    v, stagnated = update_basis(y, cores, [z], bases, 0)
    assert not stagnated
    assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-10


def test_update_basis_fixed_point():
    rng = np.random.default_rng(8)
    z = np.linalg.qr(rng.standard_normal((12, 3)))[0]
    core = rng.standard_normal((3, 2, 2))
    v1 = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    v2 = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    t = mode_product(mode_product(mode_product(core, z, 0), v1, 1), v2, 2)
    v, stagnated = update_basis(t, [core], [z], [v1, v2], 0)
    assert not stagnated
    # noiseless self-consistent data: the update reproduces the generating basis
    assert np.allclose(v @ (v.T @ v1), v1, atol=1e-10)
    assert np.isclose(
        _procrustes_loss(t, [core], [z], [v1, v2], 0, v), 0.0, atol=1e-16
    )


def test_update_basis_orthonormal_target_is_fixed_point():
    # when the response-design correlation matrix already has orthonormal
    # columns, the Procrustes solution is that matrix itself
    rng = np.random.default_rng(21)
    z = rng.standard_normal((9, 2))
    core = rng.standard_normal((2, 2, 2))
    v2 = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    q_target = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    t = mode_product(mode_product(core, z, 0), v2, 2)
    design = unfold(t, 1)
    # response whose mode-1 unfolding correlates with the design exactly as q_target
    y_unf = q_target @ np.linalg.inv(design @ design.T) @ design
    y = fold(y_unf, 1, (9, 5, 3))
    start = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    v, stagnated = update_basis(y, [core], [z], [start, v2], 0)
    assert not stagnated
    assert np.allclose(v, q_target, atol=1e-8)


def test_update_basis_square_case_is_polar_factor():
    rng = np.random.default_rng(22)
    z = rng.standard_normal((10, 3))
    core = rng.standard_normal((3, 4, 3))  # full output rank on mode 0
    y = rng.standard_normal((10, 4, 3))
    bases = [np.eye(4), np.linalg.qr(rng.standard_normal((3, 2)))[0][:, :3]]
    bases[1] = np.eye(3)
    v, _ = update_basis(y, [core], [z], bases, 0)
    t = mode_product(mode_product(core, z, 0), bases[1], 2)
    g = unfold(y, 1) @ unfold(t, 1).T
    w, vec = np.linalg.eigh(g.T @ g)
    inv_root = vec @ np.diag(1.0 / np.sqrt(w)) @ vec.T
    polar = g @ inv_root
    assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-10
    assert np.allclose(v, polar, atol=1e-8)


def test_update_basis_beats_random_candidates():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((10, 5, 4))
    z = rng.standard_normal((10, 3))
    cores = [rng.standard_normal((3, 2, 2))]
    bases = [np.linalg.qr(rng.standard_normal((5, 2)))[0],
             np.linalg.qr(rng.standard_normal((4, 2)))[0]]
    v, _ = update_basis(y, cores, [z], bases, 0)
    best = _procrustes_loss(y, cores, [z], bases, 0, v)
    for _ in range(300):
        cand = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        assert _procrustes_loss(y, cores, [z], bases, 0, cand) >= best - 1e-10


def test_update_basis_stagnation_on_zero_design():
    rng = np.random.default_rng(10)
    y = rng.standard_normal((6, 4, 3))
    z = rng.standard_normal((6, 2))
    cores = [np.zeros((2, 2, 2))]
    bases = [np.linalg.qr(rng.standard_normal((4, 2)))[0],
             np.linalg.qr(rng.standard_normal((3, 2)))[0]]
    v, stagnated = update_basis(y, cores, [z], bases, 0)
    assert stagnated
    assert np.array_equal(v, bases[0])


# ---------------------------------------------------------------------------
# assemble_coefficients / loss / predict
# ---------------------------------------------------------------------------

def test_assemble_zero_core_and_identity_factors():
    ds = small_dataset()
    model = fit(ds, FitConfig(input_ranks=[2, 2], output_rank=2, max_iter=1))
    model.cores[0] = np.zeros_like(model.cores[0])
    assert not assemble_coefficients(model, 0).any()

    rng = np.random.default_rng(11)
    y = rng.standard_normal((6, 4, 3))
    ds2 = Dataset(y, [rng.standard_normal((6, 2))])
    model2 = fit(ds2, FitConfig(input_ranks=[(2,)], output_rank=(4, 3),
                                input_basis="identity", max_iter=2))
    model2.input_factors[0] = [np.eye(2)]
    model2.output_bases = [np.eye(4), np.eye(3)]
    b = assemble_coefficients(model2, 0)
    cube = unfold_general(model2.cores[0], (0,), (1, 2))
    expected = cube.reshape((2, 4, 3), order="F")
    assert np.allclose(b, expected, atol=1e-14)


def test_assemble_matches_kronecker_oracle():
    ds = small_dataset(seed=12)
    model = fit(ds, FitConfig(input_ranks=[3, 2], output_rank=2, max_iter=4))
    b = assemble_coefficients(model, 1)
    flat = unfold_general(b, (0, 1), (2, 3))
    u1, u2 = model.input_factors[1]
    v1, v2 = model.output_bases
    core_mat = unfold_general(model.cores[1], (0,), (1, 2))
    expected = kronecker(u2, u1) @ core_mat @ kronecker(v2, v1).T
    assert np.linalg.norm(flat - expected) <= 1e-10 * np.linalg.norm(expected)


def test_loss_cases():
    ds = small_dataset(seed=13)
    zero_b = [np.zeros(ds.input_shapes[j] + ds.output_shape) for j in range(2)]
    assert np.isclose(loss(ds, zero_b), np.vdot(ds.y, ds.y))

    rng = np.random.default_rng(14)
    bs = [rng.standard_normal(ds.input_shapes[j] + ds.output_shape) for j in range(2)]
    # scalar-loop residual oracle
    resid = ds.y.copy()
    for m in range(ds.num_samples):
        for j, b in enumerate(bs):
            x = ds.xs[j][m]
            resid[m] -= np.tensordot(x, b, axes=(tuple(range(x.ndim)), tuple(range(x.ndim))))
    assert np.isclose(loss(ds, bs), np.vdot(resid, resid), rtol=1e-12)

    exact = [np.zeros_like(bs[0]), np.zeros_like(bs[1])]
    ds_zero = Dataset(np.zeros_like(ds.y), ds.xs)
    assert loss(ds_zero, exact) == 0.0


def test_predict_cases():
    ds = small_dataset(seed=15)
    model = fit(ds, FitConfig(input_ranks=[3, 2], output_rank=2, max_iter=5))
    zeros = [np.zeros_like(x) for x in ds.xs]
    assert not predict(model, zeros).any()

    pred = predict(model, ds.xs)
    oracle = np.zeros_like(ds.y)
    for j in range(2):
        b = assemble_coefficients(model, j)
        flat = unfold(ds.xs[j], 0) @ unfold_general(
            b, tuple(range(len(ds.input_shapes[j]))),
            tuple(range(len(ds.input_shapes[j]), b.ndim)))
        oracle += flat.reshape((ds.num_samples,) + ds.output_shape, order="F")
    assert np.allclose(pred, oracle, rtol=1e-12, atol=1e-12)


def test_predict_shape_validation():
    ds = small_dataset(seed=16)
    model = fit(ds, FitConfig(input_ranks=[2, 2], output_rank=2, max_iter=2))
    with pytest.raises(ValueError):
        predict(model, [ds.xs[0]])
    with pytest.raises(ValueError):
        predict(model, [ds.xs[0][:, :3], ds.xs[1]])


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_noiseless_realizable_drives_loss_to_zero():
    data = generate(SimSpec("waveform", sigma=0.0, seed=2))
    model = fit(data.train, FitConfig(input_ranks=[2, 3], output_rank=3))
    assert model.loss_trace[-1] <= 1e-8 * float(np.vdot(data.train.y, data.train.y))
    # consistency needs a deeper solve than the default stopping rule
    model = fit(data.train, FitConfig(input_ranks=[2, 3], output_rank=3, tol=1e-10))
    pred = predict(model, data.train.xs)
    rel = np.linalg.norm(pred - data.train.y) / np.linalg.norm(data.train.y)
    assert rel <= 1e-6


def test_fit_full_rank_single_input_matches_ols():
    rng = np.random.default_rng(17)
    m, p1, p2, q1, q2 = 60, 3, 2, 4, 3
    x = rng.standard_normal((m, p1, p2))
    y = rng.standard_normal((m, q1, q2))
    ds = Dataset(y, [x])
    model = fit(ds, FitConfig(input_ranks=[(p1, p2)], output_rank=(q1, q2),
                              tol=1e-12, max_iter=200))
    pred = predict(model, [x])
    ols = unfold(x, 0) @ (np.linalg.pinv(unfold(x, 0)) @ unfold(y, 0))
    rel = np.linalg.norm(unfold(pred, 0) - ols) / np.linalg.norm(ols)
    assert rel <= 1e-6


def test_fit_waveform_paper_value_spot():
    vals = []
    for seed in (0, 1):
        data = generate(SimSpec("waveform", sigma=0.1, seed=seed))
        model = fit(data.train, FitConfig(input_ranks=[2, 3], output_rank=3))
        vals.append(smspe(data.test.y, predict(model, data.test.xs)))
    for v in vals:
        assert abs(v - 0.0044) <= 0.003


def test_fit_monotone_loss_and_residual_identity():
    ds = small_dataset(seed=18, m=20)
    model = fit(ds, FitConfig(input_ranks=[3, 2], output_rank=3))
    w = model.loss_trace
    assert all(w[i + 1] <= w[i] + 1e-10 * w[0] for i in range(len(w) - 1))
    resid = np.linalg.norm(ds.y - predict(model, ds.xs))
    assert np.isclose(resid, np.sqrt(w[-1]), rtol=1e-10)


def test_fit_orthonormal_bases():
    ds = small_dataset(seed=19)
    model = fit(ds, FitConfig(input_ranks=[3, 2], output_rank=3))
    for v in model.output_bases:
        assert np.linalg.norm(v.T @ v - np.eye(v.shape[1])) <= 1e-10
    for per_input in model.input_factors:
        for u in per_input:
            assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-8


def test_fit_seed_invariant_predictions_random_init():
    data = generate(SimSpec("waveform", sigma=0.0, seed=3))
    preds = []
    for seed in (5, 23):
        model = fit(data.train, FitConfig(input_ranks=[2, 3], output_rank=3,
                                          init="random", seed=seed, tol=1e-10, max_iter=200))
        preds.append(predict(model, data.test.xs))
    rel = np.linalg.norm(preds[0] - preds[1]) / np.linalg.norm(preds[0])
    assert rel <= 1e-4


def test_fit_validation_errors():
    ds = small_dataset(seed=20)
    with pytest.raises(ConfigError):
        fit(ds, FitConfig(input_ranks=[3], output_rank=2))
    with pytest.raises(ConfigError):
        fit(ds, FitConfig(input_ranks=[3, 99], output_rank=2))
    bad = Dataset(ds.y.copy(), ds.xs)
    bad.y[0, 0, 0] = np.inf
    with pytest.raises(NumericalError):
        fit(bad, FitConfig(input_ranks=[2, 2], output_rank=2))


def test_dataset_validation():
    with pytest.raises(ConfigError):
        Dataset(np.zeros(4), [np.zeros((4, 2))])
    with pytest.raises(ConfigError):
        Dataset(np.zeros((4, 2)), [np.zeros((3, 2))])
    with pytest.raises(ConfigError):
        Dataset(np.zeros((4, 2)), [np.zeros(4)])
    with pytest.raises(ConfigError):
        Dataset(np.zeros((4, 2)), [])


# ---------------------------------------------------------------------------
# rank-space kernel against the mode-product sweep it replaced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_data,in_ranks,out_rank", [
    # 1-mode response, two inputs
    (lambda: generate(SimSpec("jump", seed=1, m_train=80, m_test=0)).train, [3, 10], 12),
    # 2-mode response with a 2-mode input
    (lambda: generate(SimSpec("waveform", sigma=0.2, seed=0, m_train=40, m_test=0)).train,
     [2, 3], 3),
    # multi-mode input and response, per-mode ranks
    (lambda: small_dataset(seed=30, m=20), [3, (2, 3)], (3, 2)),
    (lambda: generate(SimSpec("wafer", seed=0, m_train=20, m_test=0, polar_shape=(20, 40),
                              cartesian_step=2.0)).train, [8], 8),
])
def test_fit_matches_mode_product_reference(make_data, in_ranks, out_rank):
    ds = make_data()
    cfg = FitConfig(input_ranks=in_ranks, output_rank=out_rank)
    model = fit(ds, cfg)

    resolved = [_resolve_rank(r, s, "in") for r, s in zip(in_ranks, ds.input_shapes)]
    factors = _input_bases(ds, resolved, "tucker")
    bases = _init_output_bases(ds.y, _resolve_rank(out_rank, ds.output_shape, "out"), cfg)
    scores = [input_projection(x, f) for x, f in zip(ds.xs, factors)]
    cores, bases, trace, stagnated = reference_als(ds.y, scores, bases, cfg.tol, cfg.max_iter)

    assert len(model.loss_trace) == len(trace)
    np.testing.assert_allclose(model.loss_trace, trace, rtol=1e-10, atol=0)
    assert model.stagnated == stagnated
    assert [c.shape for c in model.cores] == [c.shape for c in cores]
    ref = reference_predict(scores, cores, bases)
    pred = predict(model, ds.xs)
    assert np.linalg.norm(pred - ref) <= 1e-9 * np.linalg.norm(ref)
