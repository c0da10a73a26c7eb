"""Seeded data generators for the five benchmark experiments.

Every generator is a pure function of its spec: the same seed reproduces the
dataset bit for bit. Structural randomness and measurement noise come from
separate streams, so regenerating with a different noise seed leaves a
noiseless dataset unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .solver import Dataset
from .tensor import multi_mode_product

__all__ = [
    "KernelSpec",
    "gram",
    "gp_sample",
    "bspline_basis",
    "SimSpec",
    "GeneratedData",
    "generate",
    "in_plane_distortion",
    "second_order_residual",
    "resample_bilinear",
    "KINDS",
    "DEFAULT_SIGMA",
]

KINDS = ("curve_on_curve", "waveform", "cone", "jump", "wafer")

DEFAULT_SIGMA = {
    "curve_on_curve": math.sqrt(0.1),
    "waveform": 0.1,
    "cone": 0.01,
    "jump": 0.1,
    "wafer": 0.0,
}

DEFAULT_SIZES = {
    "curve_on_curve": (400, 100),
    "waveform": (160, 40),
    "cone": (81, 1000),
    "jump": (400, 100),
    "wafer": (500, 100),
}


# ---------------------------------------------------------------------------
# Gaussian-process sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Stationary covariance of |z - z'|.

    ``damped_quadratic``: (1 + a r + (a r)^2 / 3) exp(-a r) with a = rate.
    ``squared_exp``: exp(-(scale r)^2).
    """

    kind: str
    scale: float = 1.0

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.abs(r)
        if self.kind == "damped_quadratic":
            a = self.scale * r
            return (1.0 + a + a**2 / 3.0) * np.exp(-a)
        if self.kind == "squared_exp":
            return np.exp(-((self.scale * r) ** 2))
        raise ConfigError(f"unknown kernel kind {self.kind!r}")


def gram(kernel: KernelSpec, grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=np.float64)
    return kernel(grid[:, None] - grid[None, :])


def gp_sample(kernel: KernelSpec, grid, rng, size=()) -> np.ndarray:
    """Zero-mean Gaussian-process draws on `grid`.

    Sampling goes through the symmetric eigendecomposition of the Gram
    matrix with negative eigenvalues clamped to zero, which keeps
    near-singular covariances usable without jitter. `rng` may be a seed or
    a Generator; `size` prepends batch axes.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if isinstance(size, int):
        size = (size,)
    grid = np.asarray(grid, dtype=np.float64)
    k = gram(kernel, grid)
    w, v = np.linalg.eigh(k)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    z = rng.standard_normal(tuple(size) + (grid.size,))
    return z @ root.T


# ---------------------------------------------------------------------------
# B-spline bases
# ---------------------------------------------------------------------------

def bspline_basis(order: int, interior_knots: int, grid) -> np.ndarray:
    """Clamped B-spline design matrix on [0, 1] via the Cox-de Boor recursion.

    `interior_knots` equally spaced interior knots give
    ``interior_knots + order`` basis columns; row sums are 1 everywhere on
    the interval.
    """
    if order < 1:
        raise ConfigError("spline order must be at least 1")
    if interior_knots < 0:
        raise ConfigError("interior knot count cannot be negative")
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(grid < 0.0) or np.any(grid > 1.0):
        raise ConfigError("grid points must lie in [0, 1]")
    inner = np.arange(1, interior_knots + 1) / (interior_knots + 1)
    knots = np.concatenate([np.zeros(order), inner, np.ones(order)])

    n_intervals = knots.size - 1
    basis = np.zeros((grid.size, n_intervals))
    for i in range(n_intervals):
        left, right = knots[i], knots[i + 1]
        hit = (grid >= left) & (grid < right)
        if left < right and right == knots[-1]:
            hit = (grid >= left) & (grid <= right)  # close the final interval
        basis[:, i] = hit

    for degree in range(1, order):
        nxt = np.zeros((grid.size, n_intervals - degree))
        for i in range(n_intervals - degree):
            den1 = knots[i + degree] - knots[i]
            den2 = knots[i + degree + 1] - knots[i + 1]
            term = np.zeros(grid.size)
            if den1 > 0:
                term = term + (grid - knots[i]) / den1 * basis[:, i]
            if den2 > 0:
                term = term + (knots[i + degree + 1] - grid) / den2 * basis[:, i + 1]
            nxt[:, i] = term
        basis = nxt
    return basis


# ---------------------------------------------------------------------------
# Spec and result containers
# ---------------------------------------------------------------------------

@dataclass
class SimSpec:
    """Description of one experiment draw.

    `sigma`, `m_train` and `m_test` default per kind to the benchmark
    settings. `noise_seed` defaults to `seed`; passing a different value
    re-rolls only the measurement noise.
    """

    kind: str
    sigma: float | None = None
    seed: int = 0
    m_train: int | None = None
    m_test: int | None = None
    noise_seed: int | None = None
    # curve_on_curve
    num_curves: int = 1
    curve_corr: float = 0.0
    # wafer
    polar_shape: tuple[int, int] = (100, 200)
    cartesian_step: float = 1.0
    response_axis: str = "x"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.sigma is None:
            self.sigma = DEFAULT_SIGMA[self.kind]
        if self.sigma < 0:
            raise ConfigError("sigma cannot be negative")
        default_train, default_test = DEFAULT_SIZES[self.kind]
        if self.m_train is None:
            self.m_train = default_train
        if self.m_test is None:
            self.m_test = default_test
        if self.m_train < 1 or self.m_test < 0:
            raise ConfigError("need at least one training sample and a nonnegative test size")
        if self.kind == "cone" and self.m_train != 81:
            raise ConfigError("cone training data is the fixed 81-run factorial design")
        if self.kind == "wafer" and self.sigma != 0.0:
            raise ConfigError("the wafer generator is noiseless; sigma must be 0")
        if self.num_curves < 1:
            raise ConfigError("num_curves must be at least 1")
        if not 0.0 <= self.curve_corr < 1.0:
            raise ConfigError("curve_corr must lie in [0, 1)")
        if self.response_axis not in ("x", "y"):
            raise ConfigError("response_axis must be 'x' or 'y'")
        if min(self.polar_shape) < 2:
            raise ConfigError("polar grid needs at least 2 points per axis")


@dataclass
class GeneratedData:
    """Train/test datasets plus (when defined) the noise-free responses."""

    train: Dataset
    test: Dataset | None
    train_truth: np.ndarray | None
    test_truth: np.ndarray | None
    input_names: list[str]
    info: dict = field(default_factory=dict)


def _streams(spec: SimSpec) -> tuple[np.random.Generator, np.random.Generator]:
    noise_entropy = spec.seed if spec.noise_seed is None else spec.noise_seed
    return (
        np.random.default_rng([spec.seed, 101]),
        np.random.default_rng([noise_entropy, 202]),
    )


def generate(spec: SimSpec, gp_sampler: Callable | None = None) -> GeneratedData:
    """Run the generator named by ``spec.kind``.

    `gp_sampler` overrides Gaussian-process sampling in the curve-on-curve
    generator (test hook); it must accept (kernel, grid, rng, size).
    """
    if spec.kind == "curve_on_curve":
        return _gen_curve_on_curve(spec, gp_sampler or gp_sample)
    if gp_sampler is not None:
        raise ConfigError("gp_sampler only applies to the curve_on_curve generator")
    if spec.kind == "waveform":
        return _gen_waveform(spec)
    if spec.kind == "cone":
        return _gen_cone(spec)
    if spec.kind == "jump":
        return _gen_jump(spec)
    return _gen_wafer(spec)


def _split(y, xs, truth, m_train, idx_train, idx_test, names, info) -> GeneratedData:
    train = Dataset(y[idx_train], [x[idx_train] for x in xs])
    test = Dataset(y[idx_test], [x[idx_test] for x in xs]) if len(idx_test) else None
    return GeneratedData(
        train=train,
        test=test,
        train_truth=None if truth is None else truth[idx_train],
        test_truth=None if truth is None or test is None else truth[idx_test],
        input_names=names,
        info=info,
    )


# ---------------------------------------------------------------------------
# Curve-on-curve regression
# ---------------------------------------------------------------------------

def _gen_curve_on_curve(spec: SimSpec, sampler: Callable) -> GeneratedData:
    p = spec.num_curves
    m = spec.m_train + spec.m_test
    rng_s, rng_n = _streams(spec)
    s_grid = 2.0 * np.arange(1, 101) / 100
    t_grid = np.arange(1, 101) / 100
    ds = 2.0 / 100

    coef_kernel = KernelSpec("damped_quadratic", 20.0)
    predictor_kernel = KernelSpec("squared_exp", 2.0)
    scalar_kernel = KernelSpec("squared_exp", 5.0)

    gamma = sampler(coef_kernel, t_grid, rng_s, (3, p))
    psi = sampler(coef_kernel, s_grid, rng_s, (3, p))
    # coefficient surfaces B_i(s, t), scaled by 1/p^2
    surfaces = np.einsum("kis,kit->ist", psi, gamma) / p**2
    alpha = sampler(scalar_kernel, t_grid, rng_s, (5,))

    mix = np.full((p, p), spec.curve_corr)
    np.fill_diagonal(mix, 1.0)
    mixer = np.linalg.cholesky(mix)
    raw = sampler(predictor_kernel, s_grid, rng_s, (m, p))
    curves = np.einsum("ik,mks->mis", mixer, raw)

    scalar_cov = np.full((5, 5), 0.5)
    np.fill_diagonal(scalar_cov, 1.0)
    scalars = rng_s.standard_normal((m, 5)) @ np.linalg.cholesky(scalar_cov).T

    truth = scalars @ alpha + ds * np.einsum("mis,ist->mt", curves, surfaces)
    y = truth + spec.sigma * rng_n.standard_normal((m, t_grid.size))

    xs = [curves[:, i, :] for i in range(p)] + [scalars]
    names = [f"curve_{i + 1}" for i in range(p)] + ["scalars"]
    idx_train = np.arange(spec.m_train)
    idx_test = np.arange(spec.m_train, m)
    info = {"surfaces": surfaces, "scalar_coefficients": alpha, "s_grid": s_grid, "t_grid": t_grid}
    return _split(y, xs, truth, spec.m_train, idx_train, idx_test, names, info)


# ---------------------------------------------------------------------------
# Waveform surfaces (profile + image inputs)
# ---------------------------------------------------------------------------

def _fourier_columns(n: int, count: int) -> np.ndarray:
    """Columns cos(2*pi*t*x) for odd t, sin(2*pi*t*x) for even t, on x = j/n."""
    x = np.arange(1, n + 1) / n
    cols = []
    for t in range(1, count + 1):
        arg = 2.0 * np.pi * t * x
        cols.append(np.cos(arg) if t % 2 == 1 else np.sin(arg))
    return np.column_stack(cols)


def _gen_waveform(spec: SimSpec) -> GeneratedData:
    m = spec.m_train + spec.m_test
    rng_s, rng_n = _streams(spec)
    rank1, rank2, rank_out = 2, 3, 3

    u_profile = _fourier_columns(60, rank1)
    u_image_rows = _fourier_columns(50, rank2)
    u_image_cols = _fourier_columns(50, rank2)
    v_rows = _fourier_columns(60, rank_out)
    v_cols = _fourier_columns(40, rank_out)

    core1 = rng_s.standard_normal((rank1, rank_out, rank_out))
    core2 = rng_s.standard_normal((rank2, rank2, rank_out, rank_out))
    # Riemann quadrature weight of the unit design grid x = j/P: the response is
    # the integral-style contraction of each input field with its coefficient
    # surface, which keeps the signal scale independent of the grid resolution.
    coef1 = multi_mode_product(core1, [u_profile, v_rows, v_cols]) / 60
    coef2 = multi_mode_product(core2, [u_image_rows, u_image_cols, v_rows, v_cols]) / (50 * 50)

    weights1 = rng_s.standard_normal((m, rank1))
    weights2 = rng_s.standard_normal((m, rank2, rank2))
    x1 = weights1 @ u_profile.T
    x2 = np.einsum("ab,mbc,dc->mad", u_image_rows, weights2, u_image_cols)

    truth = (
        np.tensordot(x1, coef1, axes=((1,), (0,)))
        + np.tensordot(x2, coef2, axes=((1, 2), (0, 1)))
    )
    y = truth + spec.sigma * rng_n.standard_normal(truth.shape)

    perm = rng_s.permutation(m)
    idx_train = np.sort(perm[: spec.m_train])
    idx_test = np.sort(perm[spec.m_train:])
    info = {"coefficients": [coef1, coef2], "ranks": (rank1, rank2, rank_out)}
    return _split(y, [x1, x2], truth, spec.m_train, idx_train, idx_test,
                  ["profile", "image"], info)


# ---------------------------------------------------------------------------
# Truncated cones (scalar + profile inputs, surface output)
# ---------------------------------------------------------------------------

_CONE_LEVELS = {
    "radius": (1.1, 1.3, 1.5),
    "angle": (0.0, np.pi / 8, np.pi / 4),
    "eccentricity": (0.0, 0.3, 0.5),
    "curvature": (-1.0, 0.0, 1.0),
}


def _cone_surfaces(radius, angle, ecc, curv, phi, z) -> np.ndarray:
    taper = radius[:, None, None] + z[None, None, :] * np.tan(angle)[:, None, None]
    squeeze = np.sqrt(1.0 - (ecc**2)[:, None, None] * (np.cos(phi) ** 2)[None, :, None])
    bend = curv[:, None, None] * (z**2 - z)[None, None, :]
    return taper / squeeze + bend


def _cone_inputs(radius, angle, ecc, curv, phi, z) -> list[np.ndarray]:
    return [
        radius[:, None],
        np.tan(angle)[:, None] * z[None, :],
        (ecc**2)[:, None] * (np.cos(phi) ** 2)[None, :],
        curv[:, None] * (z**2 - z)[None, :],
    ]


def _gen_cone(spec: SimSpec) -> GeneratedData:
    rng_s, rng_n = _streams(spec)
    n_grid = 200
    phi = 2.0 * np.pi * np.arange(1, n_grid + 1) / n_grid
    z = np.arange(1, n_grid + 1) / n_grid

    levels = itertools.product(*_CONE_LEVELS.values())
    tr = np.array(list(levels), dtype=np.float64)
    r_tr, a_tr, e_tr, c_tr = tr.T

    truth_train = _cone_surfaces(r_tr, a_tr, e_tr, c_tr, phi, z)
    y_train = truth_train + spec.sigma * rng_n.standard_normal(truth_train.shape)
    train = Dataset(y_train, _cone_inputs(r_tr, a_tr, e_tr, c_tr, phi, z))

    test = None
    truth_test = None
    if spec.m_test:
        r_te = rng_s.uniform(1.1, 1.5, spec.m_test)
        a_te = rng_s.uniform(0.0, np.pi / 4, spec.m_test)
        e_te = rng_s.uniform(0.0, 0.5, spec.m_test)
        c_te = rng_s.uniform(-1.0, 1.0, spec.m_test)
        truth_test = _cone_surfaces(r_te, a_te, e_te, c_te, phi, z)
        y_test = truth_test + spec.sigma * rng_n.standard_normal(truth_test.shape)
        test = Dataset(y_test, _cone_inputs(r_te, a_te, e_te, c_te, phi, z))

    names = ["radius", "taper_profile", "eccentricity_profile", "curvature_profile"]
    return GeneratedData(train=train, test=test, train_truth=truth_train,
                         test_truth=truth_test, input_names=names,
                         info={"phi": phi, "z": z})


# ---------------------------------------------------------------------------
# Jump curves (B-spline mixture output)
# ---------------------------------------------------------------------------

_JUMP_RUN = 5


def _gen_jump(spec: SimSpec) -> GeneratedData:
    m = spec.m_train + spec.m_test
    rng_s, rng_n = _streams(spec)
    n_grid = 200
    t = np.arange(1, n_grid + 1) / n_grid
    smooth = bspline_basis(4, 1, t)   # 200 x 5
    spiky = bspline_basis(4, 47, t)   # 200 x 51

    x1 = rng_s.uniform(0.0, 1.0, (m, smooth.shape[1]))
    n_starts = spiky.shape[1] - _JUMP_RUN + 1
    starts = rng_s.integers(0, n_starts, m)
    x2 = np.zeros((m, spiky.shape[1]))
    x2[np.arange(m)[:, None], starts[:, None] + np.arange(_JUMP_RUN)] = 1.0

    truth = x1 @ smooth.T + x2 @ spiky.T
    y = truth + spec.sigma * rng_n.standard_normal(truth.shape)

    perm = rng_s.permutation(m)
    idx_train = np.sort(perm[: spec.m_train])
    idx_test = np.sort(perm[spec.m_train:])
    info = {"bases": [smooth, spiky], "starts": starts, "t_grid": t}
    return _split(y, [x1, x2], truth, spec.m_train, idx_train, idx_test,
                  ["dense_weights", "jump_pattern"], info)


# ---------------------------------------------------------------------------
# Wafer overlay surrogate
# ---------------------------------------------------------------------------

_WAFER_RADIUS = 150.0  # mm
_WAFER_BOW1 = 0.1      # mm (100 micrometers)


def in_plane_distortion(shape_field: np.ndarray, step: float, axis: int = 0) -> np.ndarray:
    """Distortion proportional to the negative shape gradient along one axis.

    Second-order central differences inside, second-order one-sided at the
    edges, so quadratic fields differentiate exactly.
    """
    return -np.gradient(np.asarray(shape_field, dtype=np.float64), step, axis=axis, edge_order=2)


def _quadratic_design(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(x.size), x, y, x**2, y**2, x * y])


def _detrend(field: np.ndarray, design: np.ndarray, solver: np.ndarray,
             inside: np.ndarray) -> np.ndarray:
    """`field` minus the trend `design @ coef`, where `coef = solver @ field[inside]`.

    `design` is the flattened grid's quadratic design, `inside` the flattened
    fit mask and `solver` the pseudoinverse of `design[inside]`; a caller
    de-trending many fields on one grid builds all three once.
    """
    coef = solver @ field.ravel()[inside]
    return field - (design @ coef).reshape(field.shape)


def second_order_residual(field: np.ndarray, x: np.ndarray, y: np.ndarray,
                          mask: np.ndarray) -> np.ndarray:
    """Residual after removing the least-squares quadratic trend fitted inside `mask`.

    The trend is ``1, x, y, x^2, y^2, xy`` on the grid coordinates `x`, `y`,
    fitted by the pseudoinverse of its design restricted to `mask`.
    """
    design = _quadratic_design(x.ravel(), y.ravel())
    inside = mask.ravel()
    return _detrend(field, design, np.linalg.pinv(design[inside]), inside)


def _bilinear_stencil(shape: tuple[int, int], origin: float, step: float,
                      px: np.ndarray, py: np.ndarray) -> tuple:
    """Flat corner indices, fractions and complements (1 - fraction) of
    bilinear interpolation at (px, py) on a grid of `shape`."""
    n0, n1 = shape
    gx = np.clip((px - origin) / step, 0.0, n0 - 1.0)
    gy = np.clip((py - origin) / step, 0.0, n1 - 1.0)
    i0 = np.minimum(gx.astype(int), n0 - 2)
    j0 = np.minimum(gy.astype(int), n1 - 2)
    fx = gx - i0
    fy = gy - j0
    corner = i0 * n1 + j0
    return corner, corner + n1, corner + 1, corner + n1 + 1, fx, fy, 1 - fx, 1 - fy


def _bilinear(field: np.ndarray, stencil: tuple) -> np.ndarray:
    c00, c10, c01, c11, fx, fy, cx, cy = stencil
    flat = field.ravel()
    return (
        flat[c00] * cx * cy
        + flat[c10] * fx * cy
        + flat[c01] * cx * fy
        + flat[c11] * fx * fy
    )


def resample_bilinear(field: np.ndarray, origin: float, step: float,
                      px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a square regular-grid field at points (px, py)."""
    return _bilinear(field, _bilinear_stencil(field.shape, origin, step, px, py))


def _gen_wafer(spec: SimSpec) -> GeneratedData:
    """Wafer shape deltas (input) and overlay residuals (response) on a polar grid.

    Per wafer: a bow change plus 2-10 ripples, each ripple the sum of a sine
    along x and a cosine along y, on the Cartesian grid; the overlay is the
    negative shape gradient along `response_axis` minus its least-squares
    quadratic trend inside the disc; both fields are resampled bilinearly
    onto the polar grid and zeroed outside the wafer.

    Everything that does not depend on the wafer (grid, trend design and its
    pseudoinverse, resampling stencil) is built once per call. Each ripple
    term depends on one axis only, so it is evaluated on that axis and
    broadcast into the full-grid sum; the sum runs in the same order over
    the same values as a full-grid evaluation, so the output is unchanged
    bit for bit.
    """
    rng_s, _ = _streams(spec)
    m = spec.m_train + spec.m_test
    step = spec.cartesian_step
    radius = _WAFER_RADIUS
    axis_pts = np.arange(-radius, radius + step / 2, step)
    along_x, along_y = axis_pts[:, None], axis_pts[None, :]
    gx, gy = np.meshgrid(axis_pts, axis_pts, indexing="ij")
    bow_field = (0.5 * gx**2 + gy**2) / radius**2
    grad_axis = 0 if spec.response_axis == "x" else 1

    n_r, n_theta = spec.polar_shape
    r = radius * np.arange(1, n_r + 1) / n_r
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    px = r[:, None] * np.cos(theta)[None, :]
    py = r[:, None] * np.sin(theta)[None, :]
    outside = px**2 + py**2 > radius**2 + 1e-9

    design = _quadratic_design(gx.ravel(), gy.ravel())
    inside = (gx**2 + gy**2 <= radius**2).ravel()
    trend_solver = np.linalg.pinv(design[inside])
    stencil = _bilinear_stencil(gx.shape, -radius, step, px, py)
    shapes = np.empty((m, n_r, n_theta))
    overlays = np.empty((m, n_r, n_theta))
    for i in range(m):
        bow2 = rng_s.uniform(0.03, 0.1)
        n_waves = int(rng_s.integers(2, 11))
        wavelength = rng_s.uniform(2.0, 20.0, n_waves)
        height = rng_s.uniform(wavelength / 1e7, wavelength / 1e6)
        delta_shape = (bow2 - _WAFER_BOW1) * bow_field
        for lam, h in zip(wavelength, height):
            delta_shape += (h / 2.0) * (1.0 + np.sin(2.0 * np.pi * along_x / lam))
            delta_shape += (h / 2.0) * (1.0 + np.cos(2.0 * np.pi * along_y / lam))
        distortion = in_plane_distortion(delta_shape, step, axis=grad_axis)
        overlay = _detrend(distortion, design, trend_solver, inside)
        shapes[i] = _bilinear(delta_shape, stencil)
        overlays[i] = _bilinear(overlay, stencil)
    shapes[:, outside] = 0.0
    overlays[:, outside] = 0.0

    idx_train = np.arange(spec.m_train)
    idx_test = np.arange(spec.m_train, m)
    return _split(overlays, [shapes], None, spec.m_train, idx_train, idx_test,
                  ["shape_delta"], {"polar_radii": r, "polar_angles": theta})
