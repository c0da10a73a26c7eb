import numpy as np
import pytest

from mtot import ConfigError, SimSpec, bspline_basis, generate, gp_sample
from mtot.simulate import (
    KernelSpec,
    gram,
    in_plane_distortion,
    resample_bilinear,
    second_order_residual,
)
from mtot.tuning import numerical_rank
from mtot.tensor import unfold

CHI2_CRIT_1PCT_46DOF = 71.20  # 1% upper tail, 46 degrees of freedom


# ---------------------------------------------------------------------------
# kernels and GP sampling
# ---------------------------------------------------------------------------

def test_kernel_diagonals_are_unit():
    for spec in (KernelSpec("squared_exp", 2.0), KernelSpec("squared_exp", 5.0),
                 KernelSpec("damped_quadratic", 20.0)):
        k = gram(spec, np.linspace(0, 1, 7))
        assert np.allclose(np.diag(k), 1.0)
        assert np.allclose(k, k.T)


def test_gp_single_point_is_standard_normal():
    k = KernelSpec("squared_exp", 2.0)
    draws = gp_sample(k, [0.3], np.random.default_rng(0), size=20000)
    assert draws.shape == (20000, 1)
    assert abs(draws.std() - 1.0) < 0.02


def test_gp_monte_carlo_covariance():
    grid = np.linspace(0.0, 1.0, 5)
    k = KernelSpec("squared_exp", 2.0)
    target = gram(k, grid)
    draws = gp_sample(k, grid, np.random.default_rng(1), size=10000)
    emp = draws.T @ draws / len(draws)
    assert np.linalg.norm(emp - target) <= 0.05 * np.linalg.norm(target)


def test_gp_near_singular_gram_clamped():
    k = KernelSpec("damped_quadratic", 20.0)
    grid = np.arange(1, 201) / 200
    draw = gp_sample(k, grid, np.random.default_rng(2))
    assert np.isfinite(draw).all()


# ---------------------------------------------------------------------------
# generator-wide determinism contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,kwargs", [
    ("curve_on_curve", {"m_train": 12, "m_test": 4, "num_curves": 2, "curve_corr": 0.5}),
    ("waveform", {"m_train": 16, "m_test": 4}),
    ("cone", {"m_test": 5}),
    ("jump", {"m_train": 12, "m_test": 4}),
    ("wafer", {"m_train": 4, "m_test": 2, "polar_shape": (10, 20), "cartesian_step": 5.0}),
])
def test_generators_bitwise_deterministic(kind, kwargs):
    a = generate(SimSpec(kind, seed=11, **kwargs))
    b = generate(SimSpec(kind, seed=11, **kwargs))
    assert np.array_equal(a.train.y, b.train.y)
    for xa, xb in zip(a.train.xs, b.train.xs):
        assert np.array_equal(xa, xb)
    assert np.array_equal(a.test.y, b.test.y)


@pytest.mark.parametrize("kind,kwargs", [
    ("curve_on_curve", {"m_train": 10, "m_test": 0}),
    ("waveform", {"m_train": 10, "m_test": 2}),
    ("jump", {"m_train": 10, "m_test": 2}),
])
def test_noise_stream_isolated(kind, kwargs):
    base = generate(SimSpec(kind, seed=5, sigma=0.0, noise_seed=1, **kwargs))
    other = generate(SimSpec(kind, seed=5, sigma=0.0, noise_seed=2, **kwargs))
    assert np.array_equal(base.train.y, other.train.y)
    noisy = generate(SimSpec(kind, seed=5, sigma=0.2, noise_seed=1, **kwargs))
    noisy2 = generate(SimSpec(kind, seed=5, sigma=0.2, noise_seed=2, **kwargs))
    assert np.array_equal(noisy.train_truth, noisy2.train_truth)
    assert not np.array_equal(noisy.train.y, noisy2.train.y)


def test_test_size_zero_yields_no_test_dataset():
    data = generate(SimSpec("jump", seed=0, m_train=15, m_test=0))
    assert data.test is None and data.test_truth is None


def test_spec_validation():
    with pytest.raises(ConfigError):
        SimSpec("unknown_kind")
    with pytest.raises(ConfigError):
        SimSpec("jump", sigma=-0.1)
    with pytest.raises(ConfigError):
        SimSpec("cone", m_train=80)
    with pytest.raises(ConfigError):
        SimSpec("wafer", sigma=0.5)
    with pytest.raises(ConfigError):
        SimSpec("curve_on_curve", curve_corr=1.0)


# ---------------------------------------------------------------------------
# curve-on-curve
# ---------------------------------------------------------------------------

def test_curve_constant_field_hook_matches_quadrature():
    def ones_sampler(kernel, grid, rng, size=()):
        if isinstance(size, int):
            size = (size,)
        return np.ones(tuple(size) + (np.asarray(grid).size,))

    data = generate(SimSpec("curve_on_curve", seed=9, sigma=0.0, m_train=10, m_test=0,
                            num_curves=1), gp_sampler=ones_sampler)
    scalars = data.train.xs[1]
    # all fields one: coefficient surface sums three unit products, curves are
    # one, so the integral term is 3 * (left-Riemann sum of 1 over (0, 2])
    expected = scalars.sum(axis=1, keepdims=True) + 3.0 * 2.0
    assert np.allclose(data.train.y, expected, atol=1e-12)


def test_curve_mixing_hits_target_correlation():
    data = generate(SimSpec("curve_on_curve", seed=5, sigma=0.0, m_train=10000,
                            m_test=0, num_curves=3, curve_corr=0.5))
    x = np.stack(data.train.xs[:3], axis=1)
    for s_idx in (20, 70):
        for i in range(3):
            for j in range(i + 1, 3):
                c = np.corrcoef(x[:, i, s_idx], x[:, j, s_idx])[0, 1]
                assert abs(c - 0.5) <= 0.05


def test_curve_shapes_and_truth():
    data = generate(SimSpec("curve_on_curve", seed=2, num_curves=3, m_train=30, m_test=10))
    assert data.train.y.shape == (30, 100)
    assert [x.shape for x in data.train.xs] == [(30, 100)] * 3 + [(30, 5)]
    assert data.test_truth.shape == (10, 100)
    noise = data.test.y - data.test_truth
    assert abs(noise.std() - np.sqrt(0.1)) < 0.05


# ---------------------------------------------------------------------------
# waveform surfaces
# ---------------------------------------------------------------------------

def test_waveform_shapes_and_construction_rank():
    data = generate(SimSpec("waveform", seed=3))
    assert data.train.y.shape == (160, 60, 40)
    assert data.train.xs[0].shape == (160, 60)
    assert data.train.xs[1].shape == (160, 50, 50)
    image_modes = unfold(data.train.xs[1], 1)
    assert numerical_rank(image_modes) == 3
    assert numerical_rank(unfold(data.train.xs[1], 2)) == 3
    assert numerical_rank(unfold(data.train.xs[0], 1)) == 2


def test_waveform_true_coefficients_reproduce_noiseless_data():
    data = generate(SimSpec("waveform", seed=4, sigma=0.0))
    b1, b2 = data.info["coefficients"]
    pred = (np.tensordot(data.train.xs[0], b1, axes=((1,), (0,)))
            + np.tensordot(data.train.xs[1], b2, axes=((1, 2), (0, 1))))
    rel = np.linalg.norm(pred - data.train.y) / np.linalg.norm(data.train.y)
    assert rel <= 1e-10


# ---------------------------------------------------------------------------
# truncated cones
# ---------------------------------------------------------------------------

def test_cone_degenerate_is_constant_surface():
    data = generate(SimSpec("cone", seed=0, sigma=0.0, m_test=0))
    # factorial row with angle = ecc = curv = 0 exists for each radius
    x1 = data.train.xs[0][:, 0]
    flat_rows = np.where(
        (np.abs(data.train.xs[1]).max(axis=1) == 0)
        & (np.abs(data.train.xs[2]).max(axis=1) == 0)
        & (np.abs(data.train.xs[3]).max(axis=1) == 0)
    )[0]
    assert len(flat_rows) == 3
    for row in flat_rows:
        assert np.allclose(data.train.y[row], x1[row], atol=1e-12)


def test_cone_closed_form_slice():
    data = generate(SimSpec("cone", seed=0, sigma=0.0, m_test=0))
    phi = data.info["phi"]
    z = data.info["z"]
    # pick the factorial run with r0=1.1, theta=0, e=0.5, c=0
    x = data.train
    for row in range(81):
        r0 = x.xs[0][row, 0]
        if (np.isclose(r0, 1.1) and np.abs(x.xs[1][row]).max() == 0
                and np.abs(x.xs[3][row]).max() == 0
                and np.isclose(x.xs[2][row].max(), 0.25)):
            expected = 1.1 / np.sqrt(1 - 0.25 * np.cos(phi) ** 2)
            for col in (0, 100, 199):
                assert np.allclose(x.y[row, :, col], expected, atol=1e-12)
            break
    else:
        pytest.fail("factorial row not found")


def test_cone_shapes():
    data = generate(SimSpec("cone", seed=1, m_test=7))
    assert data.train.y.shape == (81, 200, 200)
    assert [x.shape for x in data.train.xs] == [(81, 1), (81, 200), (81, 200), (81, 200)]
    assert data.test.y.shape == (7, 200, 200)


# ---------------------------------------------------------------------------
# B-splines and jump curves
# ---------------------------------------------------------------------------

def test_bspline_constant_case():
    grid = np.linspace(0, 1, 17)
    basis = bspline_basis(1, 0, grid)
    assert basis.shape == (17, 1)
    assert np.allclose(basis, 1.0)


def test_bspline_partition_of_unity_and_counts():
    grid = np.arange(1, 201) / 200
    b1 = bspline_basis(4, 1, grid)
    b2 = bspline_basis(4, 47, grid)
    assert b1.shape == (200, 5)
    assert b2.shape == (200, 51)
    assert np.allclose(b1.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(b2.sum(axis=1), 1.0, atol=1e-12)
    edges = np.array([0.0, 1.0])
    assert np.allclose(bspline_basis(4, 3, edges).sum(axis=1), 1.0, atol=1e-12)


def test_bspline_validation():
    with pytest.raises(ConfigError):
        bspline_basis(0, 1, [0.5])
    with pytest.raises(ConfigError):
        bspline_basis(4, 1, [-0.1, 0.5])


def test_jump_pattern_and_truth_identity():
    data = generate(SimSpec("jump", seed=6, sigma=0.0, m_train=50, m_test=0))
    smooth, spiky = data.info["bases"]
    x1, x2 = data.train.xs
    assert np.allclose(data.train.y, x1 @ smooth.T + x2 @ spiky.T, atol=1e-12)
    runs = x2.sum(axis=1)
    assert np.all(runs == 5)
    for row in x2:
        on = np.flatnonzero(row)
        assert on[-1] - on[0] == 4  # five consecutive entries


def test_jump_start_positions_uniform():
    data = generate(SimSpec("jump", seed=3, m_train=10000, m_test=0))
    starts = np.argmax(data.train.xs[1] > 0, axis=1)
    counts = np.bincount(starts, minlength=47)
    assert len(counts) == 47
    expected = len(starts) / 47
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 <= CHI2_CRIT_1PCT_46DOF


# ---------------------------------------------------------------------------
# wafer overlay surrogate
# ---------------------------------------------------------------------------

def _cartesian_grid(step):
    radius = 150.0
    ax = np.arange(-radius, radius + step / 2, step)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return gx, gy, gx**2 + gy**2 <= radius**2


def test_pure_bow_fully_corrected():
    gx, gy, disc = _cartesian_grid(1.0)
    bow = 0.07 * (0.5 * gx**2 + gy**2) / 150.0**2
    for axis in (0, 1):
        residual = second_order_residual(in_plane_distortion(bow, 1.0, axis=axis), gx, gy, disc)
        assert np.abs(residual[disc]).max() <= 1e-8


def test_single_wave_matches_analytic_gradient():
    gx, _, _ = _cartesian_grid(0.5)
    lam, height = 10.0, 1e-5
    w = (height / 2.0) * (1.0 + np.sin(2 * np.pi * gx / lam))
    ipd = in_plane_distortion(w, 0.5, axis=0)
    analytic = -(height * np.pi / lam) * np.cos(2 * np.pi * gx / lam)
    bound = (2 * np.pi * 0.5 / lam) ** 2 / 6 * (height * np.pi / lam)
    assert np.abs(ipd[2:-2] - analytic[2:-2]).max() <= 2.0 * bound


def test_polar_resampling_preserves_smooth_mean():
    gx, gy, _ = _cartesian_grid(1.0)
    bow = 0.1 * (0.5 * gx**2 + gy**2) / 150.0**2
    r = 150.0 * np.arange(1, 51) / 50
    theta = 2 * np.pi * np.arange(100) / 100
    px = r[:, None] * np.cos(theta)[None, :]
    py = r[:, None] * np.sin(theta)[None, :]
    resampled = resample_bilinear(bow, -150.0, 1.0, px, py)
    exact = 0.1 * (0.5 * px**2 + py**2) / 150.0**2
    assert abs(resampled.mean() - exact.mean()) <= 0.02 * abs(exact.mean())


def test_wafer_dataset_shapes_and_scale():
    data = generate(SimSpec("wafer", seed=1, m_train=6, m_test=2, polar_shape=(20, 40),
                            cartesian_step=2.0))
    assert data.train.y.shape == (6, 20, 40)
    assert data.train.xs[0].shape == (6, 20, 40)
    assert data.test.y.shape == (2, 20, 40)
    # predictor is dominated by the bow delta, response by nanotopography slopes
    assert 1e-3 < np.abs(data.train.xs[0]).max() < 1.0
    assert np.abs(data.train.y).max() < 1e-3


def test_wafer_second_coordinate_behind_flag():
    kwargs = dict(seed=1, m_train=3, m_test=0, polar_shape=(15, 30), cartesian_step=2.0)
    x_resp = generate(SimSpec("wafer", response_axis="x", **kwargs))
    y_resp = generate(SimSpec("wafer", response_axis="y", **kwargs))
    # same wafers (same predictor), different overlay coordinate
    assert np.array_equal(x_resp.train.xs[0], y_resp.train.xs[0])
    assert not np.array_equal(x_resp.train.y, y_resp.train.y)
    assert np.abs(y_resp.train.y).max() < 1e-3


def _reference_wafer(spec):
    """Per-wafer full-grid generator: every ripple term evaluated on the whole
    Cartesian grid, the trend design rebuilt per wafer, resampling by 2-D
    indexing. Returns all shape deltas and overlays in sample order."""
    rng = np.random.default_rng([spec.seed, 101])
    step, radius = spec.cartesian_step, 150.0
    ax = np.arange(-radius, radius + step / 2, step)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    bow_field = (0.5 * gx**2 + gy**2) / radius**2
    disc = gx**2 + gy**2 <= radius**2
    grad_axis = 0 if spec.response_axis == "x" else 1
    n_r, n_theta = spec.polar_shape
    r = radius * np.arange(1, n_r + 1) / n_r
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    px = r[:, None] * np.cos(theta)[None, :]
    py = r[:, None] * np.sin(theta)[None, :]
    outside = px**2 + py**2 > radius**2 + 1e-9

    def design():
        x, y = gx.ravel(), gy.ravel()
        return np.column_stack([np.ones(x.size), x, y, x**2, y**2, x * y])

    def resample(field):
        n = field.shape[0]
        fgx = np.clip((px + radius) / step, 0.0, n - 1.0)
        fgy = np.clip((py + radius) / step, 0.0, field.shape[1] - 1.0)
        i0 = np.minimum(fgx.astype(int), n - 2)
        j0 = np.minimum(fgy.astype(int), field.shape[1] - 2)
        fx, fy = fgx - i0, fgy - j0
        return (field[i0, j0] * (1 - fx) * (1 - fy) + field[i0 + 1, j0] * fx * (1 - fy)
                + field[i0, j0 + 1] * (1 - fx) * fy + field[i0 + 1, j0 + 1] * fx * fy)

    solver = np.linalg.pinv(design()[disc.ravel()])
    shapes, overlays = [], []
    for _ in range(spec.m_train + spec.m_test):
        bow2 = rng.uniform(0.03, 0.1)
        n_waves = int(rng.integers(2, 11))
        wavelength = rng.uniform(2.0, 20.0, n_waves)
        height = rng.uniform(wavelength / 1e7, wavelength / 1e6)
        delta = (bow2 - 0.1) * bow_field
        for lam, h in zip(wavelength, height):
            delta = delta + (h / 2.0) * (1.0 + np.sin(2.0 * np.pi * gx / lam))
            delta = delta + (h / 2.0) * (1.0 + np.cos(2.0 * np.pi * gy / lam))
        distortion = -np.gradient(delta, step, axis=grad_axis, edge_order=2)
        coef = solver @ distortion.ravel()[disc.ravel()]
        overlay = distortion - (design() @ coef).reshape(distortion.shape)
        shapes.append(resample(delta))
        overlays.append(resample(overlay))
    shapes, overlays = np.array(shapes), np.array(overlays)
    shapes[:, outside] = 0.0
    overlays[:, outside] = 0.0
    return shapes, overlays


@pytest.mark.parametrize("axis", ["x", "y"])
def test_wafer_generator_matches_full_grid_reference(axis):
    spec = SimSpec("wafer", seed=5, m_train=3, m_test=1, polar_shape=(6, 12),
                   response_axis=axis)
    data = generate(spec)
    shapes, overlays = _reference_wafer(spec)
    assert np.array_equal(np.concatenate([data.train.xs[0], data.test.xs[0]]), shapes)
    assert np.array_equal(np.concatenate([data.train.y, data.test.y]), overlays)
