"""Multiple tensor-on-tensor regression.

Fits a linear map from several tensor inputs to one tensor response by
alternating exact block updates: input bases are fixed up front (HOSVD of
each input or truncated identities), core coefficient tensors are refreshed
by closed-form least squares, and output bases by an orthogonal Procrustes
step, until the squared training residual stops moving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .tensor import (
    _fix_signs,
    fold_general,
    leading_left_vectors,
    multi_mode_product,
    unfold,
    unfold_general,
)

__all__ = [
    "Dataset",
    "FitConfig",
    "MtotModel",
    "input_projection",
    "update_core",
    "update_basis",
    "assemble_coefficients",
    "loss",
    "fit",
    "predict",
]


@dataclass
class Dataset:
    """One response tensor and p input tensors, sample mode first everywhere."""

    y: np.ndarray
    xs: list[np.ndarray]

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.xs = [np.asarray(x, dtype=np.float64) for x in self.xs]
        if self.y.ndim < 2:
            raise ConfigError("response must have at least one non-sample mode")
        if not self.xs:
            raise ConfigError("at least one input tensor is required")
        m = self.y.shape[0]
        if m < 1:
            raise ConfigError("empty sample mode")
        for j, x in enumerate(self.xs):
            if x.ndim < 2:
                raise ConfigError(f"input {j} must be at least 2-way; store scalars as Mx1")
            if x.shape[0] != m:
                raise ConfigError(f"input {j} has {x.shape[0]} samples, response has {m}")

    @property
    def num_samples(self) -> int:
        return self.y.shape[0]

    @property
    def num_inputs(self) -> int:
        return len(self.xs)

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.y.shape[1:]

    @property
    def input_shapes(self) -> list[tuple[int, ...]]:
        return [x.shape[1:] for x in self.xs]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.y[idx], [x[idx] for x in self.xs])


@dataclass
class FitConfig:
    """Solver settings.

    `input_ranks` has one entry per input: an int applies uniformly across
    that input's non-sample modes, a tuple gives per-mode ranks.
    `output_rank` works the same way for the response modes. `seed` only
    matters with ``init="random"``; the default HOSVD initialization is
    deterministic.
    """

    input_ranks: Sequence
    output_rank: int | Sequence[int]
    tol: float = 1e-6
    max_iter: int = 100
    seed: int = 0
    input_basis: str = "tucker"  # or "identity"
    init: str = "hosvd"  # or "random"

    def __post_init__(self):
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if self.input_basis not in ("tucker", "identity"):
            raise ConfigError(f"unknown input_basis {self.input_basis!r}")
        if self.init not in ("hosvd", "random"):
            raise ConfigError(f"unknown init {self.init!r}")


@dataclass
class MtotModel:
    """Fitted model: per-input factor sets, shared output bases, core tensors.

    ``cores[j]`` stores the input-side modes of the j-th coefficient block
    flattened into its leading mode, followed by one mode per response mode.
    """

    input_factors: list[list[np.ndarray]]
    output_bases: list[np.ndarray]
    cores: list[np.ndarray]
    input_shapes: list[tuple[int, ...]]
    output_shape: tuple[int, ...]
    input_ranks: list[tuple[int, ...]]
    output_ranks: tuple[int, ...]
    loss_trace: list[float] = field(default_factory=list)
    stagnated: bool = False

    @property
    def num_inputs(self) -> int:
        return len(self.cores)

    @property
    def iterations(self) -> int:
        return max(len(self.loss_trace) - 1, 0)


def _resolve_rank(spec, extents: tuple[int, ...], what: str) -> tuple[int, ...]:
    if np.isscalar(spec):
        ranks = (int(spec),) * len(extents)
    else:
        ranks = tuple(int(r) for r in spec)
        if len(ranks) != len(extents):
            raise ConfigError(f"{what}: {len(ranks)} ranks given for {len(extents)} modes")
    for r, n in zip(ranks, extents):
        if not 1 <= r <= n:
            raise ConfigError(f"{what}: rank {r} outside [1, {n}]")
    return ranks


def input_projection(x, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Sample-by-feature score matrix of one input under its mode bases.

    Computed by chained transposed mode products over the non-sample modes,
    then unfolding along the sample mode; equals the sample unfolding times
    the Kronecker product of the factors (highest mode leftmost) without
    ever forming it.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(factors) != x.ndim - 1:
        raise ValueError(f"{len(factors)} factors for an input with {x.ndim - 1} non-sample modes")
    t = multi_mode_product(x, factors, modes=range(1, x.ndim), transpose=True)
    return unfold(t, 0)


def _score_solver(scores: np.ndarray) -> np.ndarray:
    """Least-squares map from responses to score coefficients.

    SVD pseudoinverse with cutoff sigma_max * max(dims) * eps, so
    rank-deficient score matrices yield the minimum-norm solution instead of
    failing.
    """
    scores = np.asarray(scores, dtype=np.float64)
    rcond = max(scores.shape) * np.finfo(np.float64).eps
    try:
        return np.linalg.pinv(scores, rcond=rcond)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError("SVD failed while inverting a score matrix") from exc


# ---------------------------------------------------------------------------
# Rank-space ALS kernel
#
# A tensor with one leading "row" mode and trailing response-side modes is
# held as its C-order matricization ``(rows, prod(trailing extents))``: the
# j-th core as ``(F_j, R_1 ... R_d)`` with F_j its flattened input-rank size,
# and the response projections ``Z_j^T Y`` and ``S_j Y`` as ``(F_j, Q)``.
# Every update is then a handful of 2-D matrix products (Kolda & Bader's
# matricized Kronecker identities) instead of per-mode tensordot calls; for a
# single response mode each step is one GEMM.
# ---------------------------------------------------------------------------


def _mode_products(t: np.ndarray, dims, mats, skip: int = -1) -> np.ndarray:
    """Trailing-mode products of a matricized tensor.

    `t` is the ``(rows, prod(dims))`` C-order matricization of a
    ``(rows, *dims)`` tensor. In ascending mode order, every trailing mode
    ``i != skip`` is contracted with ``mats[i]`` of shape ``(dims[i], n_i)``
    (the mode product with ``mats[i].T``): the last mode as one 2-D matmul on
    a reshape, an earlier one as a matmul stacked over the leading block.
    Returns the matricization of the result.
    """
    if len(mats) == 1:  # one response mode: a single GEMM, or nothing to do
        return t if skip == 0 else t @ mats[0]
    rows = t.shape[0]
    dims = list(dims)
    for i, a in enumerate(mats):
        if i == skip:
            continue
        after = math.prod(dims[i + 1:])
        if after == 1:
            t = t.reshape(-1, dims[i]) @ a
        else:
            t = np.matmul(a.T, t.reshape(-1, dims[i], after))
        dims[i] = a.shape[1]
    return t.reshape(rows, -1)


class _RankSpace:
    """The response as every sweep sees it once the input scores are fixed.

    Holds, per input j with score matrix ``Z_j`` and pseudoinverse ``S_j``,
    the projections ``Z_j^T Y`` and ``S_j Y`` (``(F_j, Q)``, response modes
    matricized), the score Gram blocks ``Z_j^T Z_k``, the solver cross
    blocks ``S_j Z_k`` and ``||Y||^2``. Nothing here depends on the output
    bases, so one instance serves fits at any output rank.
    """

    def __init__(self, y: np.ndarray, scores: Sequence[np.ndarray]):
        y = np.asarray(y, dtype=np.float64)
        self.out_dims = y.shape[1:]
        y_mat = y.reshape(y.shape[0], -1)
        solvers = [_score_solver(z) for z in scores]
        self.y_by_scores = [z.T @ y_mat for z in scores]
        self.y_by_solvers = [s @ y_mat for s in solvers]
        self.score_gram = [[zj.T @ zk for zk in scores] for zj in scores]
        self.solver_cross = [[s @ zk for zk in scores] for s in solvers]
        self.y_norm2 = float(np.vdot(y, y))


def _core_step(y_by_solver, out_dims, bases, cross, cores, j: int) -> np.ndarray:
    """Exact core update for input j: ``S_j Y (x) V - sum_{k != j} S_j Z_k C_k``."""
    core = _mode_products(y_by_solver, out_dims, bases)
    for k, c in enumerate(cores):
        if k != j:
            core = core - cross[k] @ c
    return core


def _basis_step(y_by_scores, out_dims, cores, bases, mode: int) -> tuple[np.ndarray, bool]:
    """Procrustes basis update for one response mode.

    Sums over inputs the correlation of ``Z_j^T Y`` (every other response
    mode projected) with core j along all but `mode`, then takes the polar
    factor of that ``(Q_mode, R_mode)`` matrix by SVD. A zero correlation
    signals stagnation: the basis is returned unchanged with the flag set.
    """
    ranks = [v.shape[1] for v in bases]
    extent, rank = out_dims[mode], ranks[mode]
    trail = math.prod(ranks[mode + 1:])
    gram = None
    for ys, core in zip(y_by_scores, cores):
        w = _mode_products(ys, out_dims, bases, skip=mode)
        lead = core.shape[0] * math.prod(ranks[:mode])
        if trail == 1:
            g = w.reshape(lead, extent).T @ core.reshape(lead, rank)
        else:
            g = np.matmul(w.reshape(lead, extent, trail),
                          core.reshape(lead, rank, trail).transpose(0, 2, 1)).sum(axis=0)
        gram = g if gram is None else gram + g
    if not gram.any():
        return bases[mode], True
    try:
        r, _, wt = np.linalg.svd(gram, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError("SVD failed in output-basis update") from exc
    return r @ wt, False


def _expanded_loss(space: _RankSpace, cores, bases) -> float:
    """``||Y||^2 - 2 sum_j <Z_j^T Y (x) V, C_j> + sum_jk <C_j, Z_j^T Z_k C_k>``, clamped at 0."""
    total = space.y_norm2
    for j, core in enumerate(cores):
        projected = _mode_products(space.y_by_scores[j], space.out_dims, bases)
        total -= 2.0 * float(np.vdot(projected, core))
        for k, other in enumerate(cores):
            total += float(np.vdot(core, space.score_gram[j][k] @ other))
    return max(total, 0.0)


def _sweeps(space: _RankSpace, bases, tol: float, max_iter: int):
    """Block-coordinate ALS in rank space from zero cores and the given bases.

    Each sweep refreshes every core, then every output basis, then records
    the expanded-form loss; iteration stops once the loss moves by at most
    ``tol * max(||Y||^2, 1)`` or after `max_iter` sweeps. Returns
    ``(cores, bases, loss_trace, stagnated)`` with cores matricized.
    """
    bases = list(bases)
    width = math.prod(v.shape[1] for v in bases)
    cores = [np.zeros((g[0].shape[0], width)) for g in space.score_gram]
    w0 = space.y_norm2
    trace = [w0]
    stagnated = False
    threshold = tol * max(w0, 1.0)
    for _ in range(max_iter):
        for j in range(len(cores)):
            cores[j] = _core_step(space.y_by_solvers[j], space.out_dims, bases,
                                  space.solver_cross[j], cores, j)
        for i in range(len(bases)):
            bases[i], stuck = _basis_step(space.y_by_scores, space.out_dims, cores, bases, i)
            stagnated = stagnated or stuck
        trace.append(_expanded_loss(space, cores, bases))
        if abs(trace[-2] - trace[-1]) <= threshold:
            break
    return cores, bases, trace, stagnated


def _predict_scores(scores, cores, bases) -> np.ndarray:
    """Matricized prediction ``sum_j (Z_j C_j) (x) V^T`` from scores and matricized cores."""
    out = None
    for z, core in zip(scores, cores):
        part = _mode_products(z @ core, [v.shape[1] for v in bases], [v.T for v in bases])
        out = part if out is None else out + part
    return out


def update_core(residual, scores, output_bases: Sequence[np.ndarray]) -> np.ndarray:
    """Exact least-squares core update for one input, all else held fixed.

    `residual` is the response minus every other input's contribution.
    Solves the stacked regression in closed form: pseudoinverse of the score
    matrix along the sample mode, transposed output bases along the rest
    (valid because the output bases are orthonormal). This is the core step
    :func:`fit` runs, with no other inputs to subtract.
    """
    residual = np.asarray(residual, dtype=np.float64)
    solver = _score_solver(scores)
    core = _core_step(solver @ residual.reshape(residual.shape[0], -1), residual.shape[1:],
                      output_bases, [], [], 0)
    return core.reshape((solver.shape[0],) + tuple(v.shape[1] for v in output_bases))


def update_basis(y, cores: Sequence[np.ndarray], scores: Sequence[np.ndarray],
                 output_bases: Sequence[np.ndarray], mode: int) -> tuple[np.ndarray, bool]:
    """Procrustes-optimal basis for one response mode, all else held fixed.

    `mode` indexes the response modes (0-based; axis ``mode + 1`` of the
    stacked response). Takes the SVD of the response-design correlation and
    returns the orthonormal polar factor truncated to the current basis
    width, through the same basis step :func:`fit` runs. A zero design
    signals stagnation: the previous basis is returned unchanged with the
    flag set.
    """
    y = np.asarray(y, dtype=np.float64)
    d = y.ndim - 1
    if not 0 <= mode < d:
        raise ValueError(f"response mode {mode} out of range for {d} modes")
    y_mat = y.reshape(y.shape[0], -1)
    y_by_scores = [np.asarray(z, dtype=np.float64).T @ y_mat for z in scores]
    flat = [np.asarray(c, dtype=np.float64).reshape(len(c), -1) for c in cores]
    bases = [np.asarray(v, dtype=np.float64) for v in output_bases]
    return _basis_step(y_by_scores, y.shape[1:], flat, bases, mode)


def assemble_coefficients(model: MtotModel, j: int) -> np.ndarray:
    """Full coefficient tensor for input `j`: input modes first, then response modes.

    Unflattens the stored core's leading mode back into the per-mode input
    ranks, then expands along every mode with the input factors and output
    bases.
    """
    in_ranks = model.input_ranks[j]
    out_ranks = model.output_ranks
    l, d = len(in_ranks), len(out_ranks)
    core = model.cores[j]
    flat = unfold_general(core, (0,), tuple(range(1, core.ndim)))
    cube = fold_general(flat, tuple(range(l)), tuple(range(l, l + d)), in_ranks + out_ranks)
    return multi_mode_product(cube, list(model.input_factors[j]) + list(model.output_bases))


def loss(dataset: Dataset, coefficients: Sequence[np.ndarray]) -> float:
    """Squared Frobenius residual of the stacked regression under given coefficients."""
    resid = dataset.y - _predict_from_coefficients(dataset.xs, coefficients)
    return float(np.vdot(resid, resid))


def _predict_from_coefficients(xs, coefficients) -> np.ndarray:
    out = None
    for x, b in zip(xs, coefficients):
        l = x.ndim - 1
        part = np.tensordot(x, b, axes=(tuple(range(1, x.ndim)), tuple(range(l))))
        out = part if out is None else out + part
    return out


def _check_finite(dataset: Dataset):
    if not np.isfinite(dataset.y).all():
        raise NumericalError("non-finite values in the response")
    for j, x in enumerate(dataset.xs):
        if not np.isfinite(x).all():
            raise NumericalError(f"non-finite values in input {j}")


def _input_bases(dataset: Dataset, ranks, kind: str) -> list[list[np.ndarray]]:
    factors = []
    for x, rr in zip(dataset.xs, ranks):
        per_mode = []
        for mode, r in enumerate(rr, start=1):
            if kind == "identity":
                per_mode.append(np.eye(x.shape[mode])[:, :r])
            else:
                per_mode.append(leading_left_vectors(unfold(x, mode), r))
        factors.append(per_mode)
    return factors


def _gram_left_vectors(m: np.ndarray, count: int) -> np.ndarray:
    """Leading left singular vectors through the row Gram matrix.

    Much faster than a direct SVD for very wide matrices; precision in the
    trailing directions is lower, which is fine for initialization (the
    sweep updates re-estimate every basis).
    """
    w, v = np.linalg.eigh(m @ m.T)
    return _fix_signs(v[:, ::-1][:, :count])


def _init_output_bases(y: np.ndarray, ranks, cfg: FitConfig) -> list[np.ndarray]:
    if cfg.init == "random":
        rng = np.random.default_rng(cfg.seed)
        bases = []
        for i, r in enumerate(ranks):
            q, _ = np.linalg.qr(rng.standard_normal((y.shape[i + 1], r)))
            bases.append(q)
        return bases
    bases = []
    for i, r in enumerate(ranks):
        flat = unfold(y, i + 1)
        if flat.shape[1] > 4 * flat.shape[0]:
            bases.append(_gram_left_vectors(flat, r))
        else:
            bases.append(leading_left_vectors(flat, r))
    return bases


def fit(dataset: Dataset, config: FitConfig) -> MtotModel:
    """Alternating estimation: all cores, then all output bases, per sweep.

    Input bases come from the HOSVD of each input over its non-sample modes
    (or truncated identities); output bases start from the response HOSVD
    (or a seeded random orthonormal draw); cores start at zero. The loss is
    recorded after every sweep and iteration stops once its change falls
    below ``tol * max(initial loss, 1)`` or `max_iter` sweeps.
    """
    _check_finite(dataset)
    if len(config.input_ranks) != dataset.num_inputs:
        raise ConfigError(f"{len(config.input_ranks)} rank entries for {dataset.num_inputs} inputs")
    in_ranks = [
        _resolve_rank(spec, shape, f"input {j}")
        for j, (spec, shape) in enumerate(zip(config.input_ranks, dataset.input_shapes))
    ]
    out_ranks = _resolve_rank(config.output_rank, dataset.output_shape, "output")
    factors = _input_bases(dataset, in_ranks, config.input_basis)
    bases = _init_output_bases(dataset.y, out_ranks, config)
    return _als(dataset, in_ranks, out_ranks, factors, bases, config.tol, config.max_iter)


def _als(dataset: Dataset, in_ranks, out_ranks, factors, bases,
         tol: float, max_iter: int) -> MtotModel:
    """Fit at fixed input factors and initial output bases via the rank-space kernel.

    The response enters every update only through its contractions with the
    fixed score matrices, so after projecting it once (:class:`_RankSpace`)
    all sweeps and the loss run on matricized, rank-sized arrays: cores as
    ``(F_j, R_1 ... R_d)`` matrices, core updates
    ``S_j Y (x) V - sum_{k != j} S_j Z_k C_k``, basis updates from
    ``(Z_j^T Y)^T C_j`` summed over inputs followed by the SVD polar step,
    and output bases applied per mode through reshapes and 2-D matmuls.
    """
    scores = [input_projection(x, f) for x, f in zip(dataset.xs, factors)]
    space = _RankSpace(dataset.y, scores)
    cores, bases, trace, stagnated = _sweeps(space, bases, tol, max_iter)
    return MtotModel(
        input_factors=factors,
        output_bases=bases,
        cores=[c.reshape((c.shape[0],) + tuple(out_ranks)) for c in cores],
        input_shapes=dataset.input_shapes,
        output_shape=dataset.output_shape,
        input_ranks=in_ranks,
        output_ranks=out_ranks,
        loss_trace=trace,
        stagnated=stagnated,
    )


def predict(model: MtotModel, xs_new: Sequence[np.ndarray]) -> np.ndarray:
    """Response prediction: each input contracted with its coefficient tensor, summed.

    Evaluated in factored form (scores, core, output bases) for memory's
    sake; identical to contracting against :func:`assemble_coefficients`
    output up to floating-point association.
    """
    xs_new = [np.asarray(x, dtype=np.float64) for x in xs_new]
    if len(xs_new) != model.num_inputs:
        raise ValueError(f"{len(xs_new)} inputs given, model has {model.num_inputs}")
    m = xs_new[0].shape[0]
    scores = []
    for j, x in enumerate(xs_new):
        if x.shape[0] != m:
            raise ValueError("inputs disagree on sample count")
        if x.shape[1:] != tuple(model.input_shapes[j]):
            raise ValueError(
                f"input {j} has shape {x.shape[1:]}, model expects {tuple(model.input_shapes[j])}"
            )
        if not np.isfinite(x).all():
            raise NumericalError(f"non-finite values in input {j}")
        scores.append(input_projection(x, model.input_factors[j]))
    cores = [c.reshape(c.shape[0], -1) for c in model.cores]
    pred = _predict_scores(scores, cores, model.output_bases)
    return pred.reshape((m,) + tuple(model.output_shape))
