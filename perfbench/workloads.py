"""The three benchmark workloads: one table replication ("rep") each.

Every rep replays the per-rep call sequence of the `mtot` CLI through the
package's public functions, with the rep seed derived as the CLI derives
it, and wraps each call in a layer span. A rep returns its prediction
errors after passing the correctness gate, and raises `GateError` if it
does not pass.

Import this module only after the thread-pinning environment is set and the
checkout's `src/` is on `sys.path` (see run.py).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mtot import FitConfig, SimSpec, cross_validate, fit, generate, mspe, pcr_cv, pcr_predict
from mtot import predict, smspe
from mtot.io import load_dataset, load_model, save_dataset, save_model, write_ten

from spans import RepTrace

__all__ = ["GateError", "Workload", "WORKLOADS"]


class GateError(Exception):
    """A rep's output failed the benchmark's correctness gate."""


def _check_prediction(label: str, pred: np.ndarray, expected_shape, err: float, ceiling: float):
    if pred.shape != expected_shape:
        raise GateError(f"{label}: prediction shape {pred.shape}, expected {expected_shape}")
    if not np.all(np.isfinite(pred)):
        raise GateError(f"{label}: prediction has non-finite values")
    if not err <= ceiling:
        raise GateError(f"{label}: error {err!r} above the ceiling {ceiling}")


@dataclass(frozen=True)
class Workload:
    """A rep function plus the gate ceilings it applies and the number of
    leading reps (`scored_reps`) whose errors and counts the run reports,
    so those repeat exactly for a fixed workload seed."""

    name: str
    metric: str
    err_ceiling: float
    pcr_err_ceiling: float | None
    scored_reps: int
    rep: Callable[["Workload", RepTrace, int, Path], tuple[float, float | None]]


def _curve_cv(w: Workload, rt: RepTrace, seed: int, workdir: Path):
    """`mtot benchmark --kind curve_on_curve --ranks cv --method mtot,pcr`, one rep."""
    with rt.span("simulate.generate"):
        data = generate(SimSpec("curve_on_curve", seed=seed))
    with rt.span("tuning.cross_validate"):
        report = cross_validate(data.train, k=5, seed=seed, tol=1e-6, max_iter=100)
    rt.count("tuning.fits", sum(report.folds_used.values()))
    *in_ranks, out_rank = report.chosen
    with rt.span("solver.fit"):
        model = fit(data.train, FitConfig(input_ranks=in_ranks, output_rank=out_rank,
                                          tol=1e-6, max_iter=100))
    rt.count("solver.sweeps", model.iterations)
    with rt.span("solver.predict"):
        pred = predict(model, data.test.xs)
    with rt.span("pcr.pcr_cv"):
        _, pcr_model = pcr_cv(data.train, k=5, seed=seed)
    with rt.span("pcr.pcr_predict"):
        pcr_pred = pcr_predict(pcr_model, data.test.xs)
    with rt.span("metrics.score"):
        err = mspe(data.test.y, pred)
        pcr_err = mspe(data.test.y, pcr_pred)
    _check_prediction("mtot", pred, data.test.y.shape, err, w.err_ceiling)
    _check_prediction("pcr", pcr_pred, data.test.y.shape, pcr_err, w.pcr_err_ceiling)
    return err, pcr_err


def _wafer_desk(w: Workload, rt: RepTrace, seed: int, workdir: Path):
    """Desk-scale wafer rep (acceptance criterion 8): polar 50x100, 100/25
    samples, fixed ranks 30,30, then PCR. Native mm units."""
    with rt.span("simulate.generate"):
        data = generate(SimSpec("wafer", seed=seed, m_train=100, m_test=25,
                                polar_shape=(50, 100)))
    with rt.span("solver.fit"):
        model = fit(data.train, FitConfig(input_ranks=[30], output_rank=30,
                                          tol=1e-6, max_iter=100))
    rt.count("solver.sweeps", model.iterations)
    with rt.span("solver.predict"):
        pred = predict(model, data.test.xs)
    with rt.span("pcr.pcr_cv"):
        _, pcr_model = pcr_cv(data.train, k=5, seed=seed)
    with rt.span("pcr.pcr_predict"):
        pcr_pred = pcr_predict(pcr_model, data.test.xs)
    with rt.span("metrics.score"):
        err = smspe(data.test.y, pred)
        pcr_err = smspe(data.test.y, pcr_pred)
    _check_prediction("mtot", pred, data.test.y.shape, err, w.err_ceiling)
    _check_prediction("pcr", pcr_pred, data.test.y.shape, pcr_err, w.pcr_err_ceiling)
    return err, pcr_err


def _tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def _jump_files(w: Workload, rt: RepTrace, seed: int, workdir: Path):
    """`mtot simulate` -> `mtot fit --ranks 5,47,51` -> `mtot predict` for
    jump data (sigma 0.1, 400/100), through files in a temporary directory."""
    spec = SimSpec("jump", sigma=0.1, seed=seed)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        with rt.span("simulate.generate"):
            data = generate(spec)
        split_bytes = {}
        for split, dataset, truth in (("train", data.train, data.train_truth),
                                      ("test", data.test, data.test_truth)):
            before = _tree_bytes(tmp)
            with rt.span("io.save_dataset"):
                save_dataset(tmp, split, dataset, kind=spec.kind, seed=spec.seed,
                             sigma=spec.sigma, input_names=data.input_names, truth=truth)
            split_bytes[split] = _tree_bytes(tmp) - before
            rt.count("io.bytes_written", split_bytes[split])

        with rt.span("io.load_dataset"):
            train, _, _ = load_dataset(tmp / "train.json")
        rt.count("io.bytes_read", split_bytes["train"])
        with rt.span("solver.fit"):
            model = fit(train, FitConfig(input_ranks=[5, 47], output_rank=51,
                                         tol=1e-6, max_iter=100))
        rt.count("solver.sweeps", model.iterations)
        with rt.span("io.save_model"):
            save_model(tmp / "model.zip", model)
        archive_bytes = (tmp / "model.zip").stat().st_size
        rt.count("io.bytes_written", archive_bytes)

        with rt.span("io.load_model"):
            loaded = load_model(tmp / "model.zip")
        rt.count("io.bytes_read", archive_bytes)
        with rt.span("io.load_dataset"):
            test, _, _ = load_dataset(tmp / "test.json")
        rt.count("io.bytes_read", split_bytes["test"])
        with rt.span("solver.predict"):
            pred = predict(loaded, test.xs)
        with rt.span("io.write_ten"):
            write_ten(tmp / "pred.ten", pred)
        rt.count("io.bytes_written", (tmp / "pred.ten").stat().st_size)
        with rt.span("solver.predict"):
            in_memory = predict(model, data.test.xs)
        with rt.span("metrics.score"):
            err = smspe(test.y, pred)

    if not (np.array_equal(train.y, data.train.y) and np.array_equal(test.y, data.test.y)):
        raise GateError("dataset round trip through .ten files changed the response")
    if not np.array_equal(pred, in_memory):
        raise GateError("reloaded model does not predict bit-identically to the fitted one")
    _check_prediction("mtot", pred, data.test.y.shape, err, w.err_ceiling)
    return err, None


# Ceilings sit well above every rep seen while sizing the benchmark (seeds
# 0-7), so they catch a broken fit, not noise: curve_cv MSPE 0.101-0.105
# (noise variance 0.1; acceptance criterion 7 band 0.1039), its PCR MSPE
# 0.10-0.22; wafer_desk SMSPE 0.08-0.12, its PCR SMSPE 0.64-0.72; jump
# SMSPE near 0.023 (criterion 6 band).
WORKLOADS = {
    w.name: w for w in (
        Workload("curve_cv", "mspe", err_ceiling=0.15, pcr_err_ceiling=0.5,
                 scored_reps=3, rep=_curve_cv),
        Workload("wafer_desk", "smspe", err_ceiling=0.2, pcr_err_ceiling=1.0,
                 scored_reps=8, rep=_wafer_desk),
        Workload("jump_files", "smspe", err_ceiling=0.04, pcr_err_ceiling=None,
                 scored_reps=10, rep=_jump_files),
    )
}
