"""Principal component regression baseline.

Matricizes and concatenates all inputs, keeps enough principal components
to explain a target variance fraction on each side, and runs ordinary least
squares between the score spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .solver import Dataset
from .tensor import fold, unfold
from .tuning import fold_indices

__all__ = ["PcrModel", "V_GRID", "pcr_fit", "pcr_predict", "pcr_cv"]

V_GRID = (0.85, 0.90, 0.95, 0.99, 0.995)


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


def _principal_loadings(centered: np.ndarray, v: float) -> np.ndarray:
    """Right singular vectors spanning the smallest PC count explaining >= v of variance."""
    wide = centered.shape[1] > 4 * centered.shape[0]
    if wide:
        # row-Gram eigendecomposition; loadings recovered as X^T u / s
        power, u = np.linalg.eigh(centered @ centered.T)
        power = np.clip(power[::-1], 0.0, None)
        u = u[:, ::-1]
        s = np.sqrt(power)
    else:
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        power = s**2
    total = power.sum()
    if total <= 0.0:
        # zero-variance data: keep a single (arbitrary orthonormal) direction
        if wide:
            basis = np.zeros((centered.shape[1], 1))
            basis[0, 0] = 1.0
            return basis
        return vt[:1].T
    cutoff = s[0] * max(centered.shape) * np.finfo(np.float64).eps
    rank = max(int((s > cutoff).sum()), 1)
    ratios = np.cumsum(power) / total
    count = min(int(np.searchsorted(ratios, v - 1e-12) + 1), rank)
    if not wide:
        return vt[:count].T
    loadings = centered.T @ (u[:, :count] / s[:count])
    q, _ = np.linalg.qr(loadings)
    return q


def pcr_fit(dataset: Dataset, v: float) -> PcrModel:
    """Fit the baseline at variance fraction `v` (0 < v <= 1).

    Columns are centered (not rescaled) before the PCA on either side; the
    score regression includes an intercept.
    """
    if not 0.0 < v <= 1.0:
        raise ConfigError(f"variance fraction {v} outside (0, 1]")
    if dataset.num_samples < 2:
        raise ConfigError("PCR needs at least two samples")
    x = _concat_inputs(dataset.xs)
    y = unfold(dataset.y, 0)
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    yc = y - y_mean
    wx = _principal_loadings(xc, v)
    wy = _principal_loadings(yc, v)
    sx = xc @ wx
    sy = yc @ wy
    design = np.concatenate([np.ones((sx.shape[0], 1)), sx], axis=1)
    coef, *_ = np.linalg.lstsq(design, sy, rcond=None)
    return PcrModel(
        input_mean=x_mean,
        input_loadings=wx,
        output_mean=y_mean,
        output_loadings=wy,
        score_coefficients=coef,
        variance_fraction=v,
        input_shapes=dataset.input_shapes,
        output_shape=dataset.output_shape,
    )


def pcr_predict(model: PcrModel, xs_new) -> np.ndarray:
    """Project new inputs to scores, regress, reconstruct through the output loadings."""
    xs_new = [np.asarray(x, dtype=np.float64) for x in xs_new]
    for j, x in enumerate(xs_new):
        if x.shape[1:] != tuple(model.input_shapes[j]):
            raise ValueError(
                f"input {j} has shape {x.shape[1:]}, model expects {tuple(model.input_shapes[j])}"
            )
    x = _concat_inputs(xs_new)
    if x.shape[1] != model.input_mean.size:
        raise ValueError("concatenated input width does not match the fitted model")
    sx = (x - model.input_mean) @ model.input_loadings
    design = np.concatenate([np.ones((sx.shape[0], 1)), sx], axis=1)
    flat = design @ model.score_coefficients @ model.output_loadings.T + model.output_mean
    return fold(flat, 0, (x.shape[0],) + tuple(model.output_shape))


def pcr_cv(dataset: Dataset, k: int = 5, seed: int = 0,
           grid=V_GRID) -> tuple[float, PcrModel]:
    """Pick the variance fraction by k-fold CV on held-out MSE, then refit on all data.

    Ties go to the smaller fraction.
    """
    folds = fold_indices(dataset.num_samples, k, seed)
    best_v, best_err = None, np.inf
    for v in sorted(grid):
        err = 0.0
        count = 0
        for held in folds:
            train_idx = np.setdiff1d(np.arange(dataset.num_samples), held)
            model = pcr_fit(dataset.subset(train_idx), v)
            pred = pcr_predict(model, [x[held] for x in dataset.xs])
            err += float(((dataset.y[held] - pred) ** 2).sum())
            count += dataset.y[held].size
        mse = err / count
        if mse < best_err - 1e-15:
            best_v, best_err = v, mse
    return best_v, pcr_fit(dataset, best_v)
