"""Rank selection: halving-ladder candidate grids and k-fold cross-validation."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .solver import (
    Dataset,
    FitConfig,
    _init_output_bases,
    _predict_scores,
    _RankSpace,
    _sweeps,
    input_projection,
)
from .tensor import leading_left_vectors, unfold

__all__ = ["RankGrid", "CvReport", "numerical_rank", "build_grid", "make_rank_grid",
           "fold_indices", "cross_validate"]


def numerical_rank(m) -> int:
    """Count of singular values above sigma_max * max(rows, cols) * machine epsilon."""
    m = np.asarray(m, dtype=np.float64)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    cutoff = s[0] * max(m.shape) * np.finfo(np.float64).eps
    return int((s > cutoff).sum())


def build_grid(r: int) -> tuple[int, ...]:
    """Halving ladder {ceil(r / 2^t)} down from r, with 1 always included.

    A nonpositive source rank (zero matrix) falls back to {1}.
    """
    if r < 1:
        return (1,)
    ladder = {1}
    step = 0
    while True:
        value = math.ceil(r / 2**step)
        ladder.add(value)
        if value == 1:
            break
        step += 1
    return tuple(sorted(ladder))


@dataclass
class RankGrid:
    """Candidate rank sets for each input and for the output, with their source ranks."""

    input_candidates: list[tuple[int, ...]]
    output_candidates: tuple[int, ...]
    input_source_ranks: list[int]
    output_source_rank: int

    def tuples(self):
        return itertools.product(*self.input_candidates, self.output_candidates)


def make_rank_grid(dataset: Dataset) -> RankGrid:
    """Grids from the numerical ranks of every sample-mode unfolding."""
    in_ranks = [numerical_rank(unfold(x, 0)) for x in dataset.xs]
    out_rank = numerical_rank(unfold(dataset.y, 0))
    return RankGrid(
        input_candidates=[build_grid(r) for r in in_ranks],
        output_candidates=build_grid(out_rank),
        input_source_ranks=in_ranks,
        output_source_rank=out_rank,
    )


@dataclass
class CvReport:
    """Cross-validation outcome over a rank grid."""

    mean_rss: dict[tuple[int, ...], float]
    folds_used: dict[tuple[int, ...], int]
    skipped: list[tuple[int, ...]]
    chosen: tuple[int, ...]
    k: int
    seed: int

    def to_csv(self, path):
        num_inputs = len(self.chosen) - 1
        header = [f"rank_in_{j}" for j in range(num_inputs)] + ["rank_out", "mean_rss", "folds_used"]
        with Path(path).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for combo in sorted(self.mean_rss):
                writer.writerow(list(combo) + [f"{self.mean_rss[combo]:.17g}", self.folds_used[combo]])


def fold_indices(m: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded partition of `m` samples into `k` folds differing in size by at most one."""
    if k < 2:
        raise ConfigError("need at least 2 folds")
    if m < k:
        raise ConfigError(f"cannot make {k} folds from {m} samples")
    perm = np.random.default_rng(seed).permutation(m)
    return [np.sort(perm[i::k]) for i in range(k)]


def _parameter_count(combo: tuple[int, ...], dataset: Dataset) -> int:
    *in_ranks, out_rank = combo
    d = dataset.y.ndim - 1
    total = 0
    for r, shape in zip(in_ranks, dataset.input_shapes):
        total += r ** len(shape) * out_rank**d  # core entries
        total += sum(n * r for n in shape)  # factor entries
    total += sum(n * out_rank for n in dataset.output_shape)
    return total


class _FoldBank:
    """One CV fold: training split, held-out split and the banks its fits share.

    Factor and init-basis banks are computed once at the largest feasible
    candidate ranks; every tuple reuses their leading columns, which is
    valid because the leading r columns of a truncated SVD basis equal the
    rank-r computation. For each input-rank tuple, :meth:`rank_space` builds
    what every output rank then reuses: the training scores and their
    pseudoinverses, the response projections, the Gram and cross blocks
    (one :class:`~mtot.solver._RankSpace`) and the held-out scores, so a fit
    per output rank runs only the rank-space sweeps of the matricized ALS
    kernel.
    """

    def __init__(self, dataset: Dataset, held: np.ndarray, max_in, max_out):
        train = dataset.subset(np.setdiff1d(np.arange(dataset.num_samples), held))
        self.train = train
        self.held_xs = [x[held] for x in dataset.xs]
        self.held_y = dataset.y[held].reshape(len(held), -1)
        self.factor_bank = [
            [leading_left_vectors(unfold(x, mode + 1), r) for mode, r in enumerate(ranks)]
            for x, ranks in zip(train.xs, max_in)
        ]
        cfg = FitConfig(input_ranks=[1] * train.num_inputs, output_rank=1)
        self.init_bank = _init_output_bases(train.y, max_out, cfg)

    def rank_space(self, in_ranks) -> tuple[_RankSpace, list[np.ndarray]]:
        factors = [
            [bank[:, :r] for bank in per_input]
            for r, per_input in zip(in_ranks, self.factor_bank)
        ]
        scores = [input_projection(x, f) for x, f in zip(self.train.xs, factors)]
        held = [input_projection(x, f) for x, f in zip(self.held_xs, factors)]
        return _RankSpace(self.train.y, scores), held

    def held_out_rss(self, space: _RankSpace, held_scores, out_rank: int,
                     tol: float, max_iter: int) -> float:
        """Fit at `out_rank` from the HOSVD init; held-out RSS per entry."""
        bases = [bank[:, :out_rank] for bank in self.init_bank]
        cores, bases, _, _ = _sweeps(space, bases, tol, max_iter)
        resid = self.held_y - _predict_scores(held_scores, cores, bases)
        return float(np.vdot(resid, resid)) / resid.size


def cross_validate(dataset: Dataset, grid: RankGrid | None = None, k: int = 5,
                   seed: int = 0, tol: float = 1e-6, max_iter: int = 100) -> CvReport:
    """Grid search over rank tuples by k-fold CV on held-out squared error.

    RSS is normalized by the held-out entry count and averaged over folds.
    Ties break toward the smallest parameter count, then the lexicographically
    smallest tuple. Infeasible tuples (a candidate rank exceeding a mode
    extent) are skipped and recorded.

    The loop runs over input-rank tuples, then folds, then output ranks:
    everything that depends only on the fold and the input ranks (scores,
    pseudoinverses, response projections, Gram/cross blocks, held-out
    scores) is computed once and shared by the fits at every output rank.
    Results equal those of fitting each tuple independently.
    """
    if grid is None:
        grid = make_rank_grid(dataset)
    folds = fold_indices(dataset.num_samples, k, seed)

    in_extents = [min(shape) for shape in dataset.input_shapes]
    out_extent = min(dataset.output_shape)
    max_in = [
        [min(max(cands), extent)] * len(shape)
        for cands, extent, shape in zip(grid.input_candidates, in_extents, dataset.input_shapes)
    ]
    max_out = [min(max(grid.output_candidates), out_extent)] * len(dataset.output_shape)
    banks = [_FoldBank(dataset, held, max_in, max_out) for held in folds]
    out_ranks = list(dict.fromkeys(r for r in grid.output_candidates if r <= out_extent))

    mean_rss: dict[tuple[int, ...], float] = {}
    folds_used: dict[tuple[int, ...], int] = {}
    skipped: list[tuple[int, ...]] = []
    for in_combo in itertools.product(*grid.input_candidates):
        if any(r > e for r, e in zip(in_combo, in_extents)):
            skipped.extend(in_combo + (r,) for r in grid.output_candidates)
            continue
        per_fold: dict[int, list[float]] = {r: [] for r in out_ranks}
        for bank in banks:
            space, held_scores = bank.rank_space(in_combo)
            for r in out_ranks:
                per_fold[r].append(bank.held_out_rss(space, held_scores, r, tol, max_iter))
        for r in grid.output_candidates:
            combo = in_combo + (r,)
            if r not in per_fold:
                skipped.append(combo)
                continue
            mean_rss[combo] = float(np.mean(per_fold[r]))
            folds_used[combo] = len(per_fold[r])

    if not mean_rss:
        raise ConfigError("no feasible rank tuple in the grid")
    chosen = min(
        mean_rss,
        key=lambda combo: (mean_rss[combo], _parameter_count(combo, dataset), combo),
    )
    return CvReport(mean_rss=mean_rss, folds_used=folds_used, skipped=skipped,
                    chosen=chosen, k=k, seed=seed)
