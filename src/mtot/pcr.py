"""Principal component regression baseline.

Matricizes and concatenates all inputs, keeps enough principal components
to explain a target variance fraction on each side, and runs ordinary least
squares between the score spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .solver import Dataset
from .tensor import fold, unfold
from .tuning import fold_indices

__all__ = ["PcrModel", "V_GRID", "pcr_fit", "pcr_predict", "pcr_cv"]

V_GRID = (0.85, 0.90, 0.95, 0.99, 0.995)
_TIE_RTOL = 1e-15


@dataclass
class PcrModel:
    input_mean: np.ndarray
    input_loadings: np.ndarray
    output_mean: np.ndarray
    output_loadings: np.ndarray
    score_coefficients: np.ndarray  # (components + 1) x output components, first row = intercept
    variance_fraction: float
    input_shapes: list[tuple[int, ...]]
    output_shape: tuple[int, ...]

    def __post_init__(self):
        # C-contiguous buffers keep serialized round trips bit-identical in
        # prediction (BLAS kernels differ between memory layouts)
        for name in ("input_mean", "input_loadings", "output_mean",
                     "output_loadings", "score_coefficients"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float64))


def _concat_inputs(xs) -> np.ndarray:
    return np.concatenate([unfold(x, 0) for x in xs], axis=1)


@dataclass
class _Spectrum:
    """One side's centred data and its PCA factorization.

    `power` holds the component variances (squared singular values) in
    descending order; `vectors` are the right singular vectors as rows
    (SVD path) or the row-Gram eigenvectors as columns (`wide` path).
    """

    centered: np.ndarray
    power: np.ndarray
    s: np.ndarray
    vectors: np.ndarray
    wide: bool


def _spectrum(centered: np.ndarray) -> _Spectrum:
    """Decompose once; wide data goes through the row-Gram eigendecomposition."""
    wide = centered.shape[1] > 4 * centered.shape[0]
    if wide:
        power, u = np.linalg.eigh(centered @ centered.T)
        power = np.clip(power[::-1], 0.0, None)
        return _Spectrum(centered, power, np.sqrt(power), u[:, ::-1], True)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    return _Spectrum(centered, s**2, s, vt, False)


def _principal_loadings(spec: _Spectrum, v: float) -> np.ndarray:
    """Orthonormal loadings of the smallest PC count explaining >= v of variance."""
    total = spec.power.sum()
    if total <= 0.0:
        # zero-variance data: keep a single (arbitrary orthonormal) direction
        if spec.wide:
            basis = np.zeros((spec.centered.shape[1], 1))
            basis[0, 0] = 1.0
            return basis
        return spec.vectors[:1].T
    s = spec.s
    cutoff = s[0] * max(spec.centered.shape) * np.finfo(np.float64).eps
    rank = max(int((s > cutoff).sum()), 1)
    ratios = np.cumsum(spec.power) / total
    count = min(int(np.searchsorted(ratios, v - 1e-12) + 1), rank)
    if not spec.wide:
        return spec.vectors[:count].T
    # loadings recovered from the row-Gram eigenvectors as X^T u / s
    loadings = spec.centered.T @ (spec.vectors[:, :count] / s[:count])
    q, _ = np.linalg.qr(loadings)
    return q


class _PcrFactors:
    """A training set's centred inputs and responses, each decomposed once.

    :meth:`model` then fits any variance fraction with only the component
    count, the loadings and the score regression.
    """

    def __init__(self, dataset: Dataset):
        if dataset.num_samples < 2:
            raise ConfigError("PCR needs at least two samples")
        x = _concat_inputs(dataset.xs)
        y = unfold(dataset.y, 0)
        self.x_mean = x.mean(axis=0)
        self.y_mean = y.mean(axis=0)
        self.x = _spectrum(x - self.x_mean)
        self.y = _spectrum(y - self.y_mean)
        self.input_shapes = dataset.input_shapes
        self.output_shape = dataset.output_shape

    def model(self, v: float) -> PcrModel:
        if not 0.0 < v <= 1.0:
            raise ConfigError(f"variance fraction {v} outside (0, 1]")
        wx = _principal_loadings(self.x, v)
        wy = _principal_loadings(self.y, v)
        sx = self.x.centered @ wx
        sy = self.y.centered @ wy
        design = np.concatenate([np.ones((sx.shape[0], 1)), sx], axis=1)
        coef, *_ = np.linalg.lstsq(design, sy, rcond=None)
        return PcrModel(
            input_mean=self.x_mean,
            input_loadings=wx,
            output_mean=self.y_mean,
            output_loadings=wy,
            score_coefficients=coef,
            variance_fraction=v,
            input_shapes=self.input_shapes,
            output_shape=self.output_shape,
        )


def pcr_fit(dataset: Dataset, v: float) -> PcrModel:
    """Fit the baseline at variance fraction `v` (0 < v <= 1).

    Columns are centered (not rescaled) before the PCA on either side; the
    score regression includes an intercept.
    """
    return _PcrFactors(dataset).model(v)


def pcr_predict(model: PcrModel, xs_new) -> np.ndarray:
    """Project new inputs to scores, regress, reconstruct through the output loadings."""
    xs_new = [np.asarray(x, dtype=np.float64) for x in xs_new]
    for j, x in enumerate(xs_new):
        if x.shape[1:] != tuple(model.input_shapes[j]):
            raise ValueError(
                f"input {j} has shape {x.shape[1:]}, model expects {tuple(model.input_shapes[j])}"
            )
        if not np.isfinite(x).all():
            raise NumericalError(f"non-finite values in input {j}")
    x = _concat_inputs(xs_new)
    if x.shape[1] != model.input_mean.size:
        raise ValueError("concatenated input width does not match the fitted model")
    sx = (x - model.input_mean) @ model.input_loadings
    design = np.concatenate([np.ones((sx.shape[0], 1)), sx], axis=1)
    flat = design @ model.score_coefficients @ model.output_loadings.T + model.output_mean
    return fold(flat, 0, (x.shape[0],) + tuple(model.output_shape))


def _fold_sse(dataset: Dataset, held: np.ndarray, grid) -> list[float]:
    """Held-out squared error of the fit on the other samples, per fraction in `grid`."""
    factors = _PcrFactors(dataset.subset(np.setdiff1d(np.arange(dataset.num_samples), held)))
    held_xs = [x[held] for x in dataset.xs]
    return [float(((dataset.y[held] - pcr_predict(factors.model(v), held_xs)) ** 2).sum())
            for v in grid]


def _cv_mse(dataset: Dataset, folds, grid) -> list[float]:
    """Held-out MSE per fraction in `grid`, over `folds`.

    Folds run outer, so only one fold's factorizations are alive at a time;
    each fraction's squared errors are summed in fold order.
    """
    sse = [0.0] * len(grid)
    count = 0
    for held in folds:
        for i, err in enumerate(_fold_sse(dataset, held, grid)):
            sse[i] += err
        count += dataset.y[held].size
    return [err / count for err in sse]


def pcr_cv(dataset: Dataset, k: int = 5, seed: int = 0,
           grid=V_GRID) -> tuple[float, PcrModel]:
    """Pick the variance fraction by k-fold CV on held-out MSE, then refit on all data.

    Each fold's training inputs and responses are centred and decomposed
    once; every fraction reuses that factorization. A larger fraction wins
    only if its MSE is lower by more than 1e-15 times the mean square of the
    centred response, so ties go to the smaller fraction whatever the
    response's units.
    """
    grid = sorted(grid)
    folds = fold_indices(dataset.num_samples, k, seed)
    y = unfold(dataset.y, 0)
    tol = _TIE_RTOL * float(np.mean((y - y.mean(axis=0)) ** 2))
    best_v, best_err = None, np.inf
    for v, mse in zip(grid, _cv_mse(dataset, folds, grid)):
        if mse < best_err - tol:
            best_v, best_err = v, mse
    return best_v, pcr_fit(dataset, best_v)
