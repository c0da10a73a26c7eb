"""Command-line pipelines: simulate, fit, predict, cv, benchmark.

Exit codes: 0 success, 2 configuration error (including bad flags), 3
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .io import load_dataset, load_model, save_dataset, save_model, write_ten
from .metrics import msee, mspe, smspe
from .pcr import PcrModel, V_GRID, pcr_cv, pcr_fit, pcr_predict
from .simulate import KINDS, GeneratedData, SimSpec, generate
from .solver import Dataset, FitConfig, MtotModel, fit, predict
from .tuning import cross_validate

_METRICS_BY_KIND = {
    "curve_on_curve": ("mspe", "msee"),
    "waveform": ("smspe",),
    "cone": ("log_smspe",),
    "jump": ("smspe",),
    "wafer": ("log_smspe",),
}


def _add_sim_flags(cmd):
    cmd.add_argument("--kind", required=True, choices=KINDS)
    cmd.add_argument("--sigma", default=None, help="noise level (kind default when omitted)")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--train-size", type=int, default=None)
    cmd.add_argument("--test-size", type=int, default=None)
    cmd.add_argument("--curves", type=int, default=1, help="curve predictors (curve_on_curve)")
    cmd.add_argument("--corr", type=float, default=0.0, help="curve cross-correlation (curve_on_curve)")
    cmd.add_argument("--polar-grid", default="100x200", help="radial x angular wafer grid")
    cmd.add_argument("--cartesian-step", type=float, default=1.0, help="wafer grid step in mm")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate one dataset to disk")
    _add_sim_flags(sim)
    sim.add_argument("--out", required=True, help="output directory")

    fit_cmd = sub.add_parser("fit", help="fit a model to a dataset manifest")
    fit_cmd.add_argument("--data", required=True, help="dataset manifest path")
    fit_cmd.add_argument("--method", choices=("mtot", "pcr"), default="mtot")
    fit_cmd.add_argument("--ranks", default="cv",
                         help="comma-separated input ranks plus output rank, or 'cv'")
    fit_cmd.add_argument("--v", default="cv", help="PCR variance fraction, or 'cv'")
    fit_cmd.add_argument("--tol", type=float, default=1e-6)
    fit_cmd.add_argument("--max-iter", type=int, default=100)
    fit_cmd.add_argument("--seed", type=int, default=0, help="fold seed for 'cv' selection")
    fit_cmd.add_argument("--out", required=True, help="model archive path")

    pred = sub.add_parser("predict", help="predict responses for a dataset manifest")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", required=True, help="output .ten path")

    cv_cmd = sub.add_parser("cv", help="cross-validate tuning parameters")
    cv_cmd.add_argument("--data", required=True)
    cv_cmd.add_argument("--method", choices=("mtot", "pcr"), default="mtot")
    cv_cmd.add_argument("--k", type=int, default=5)
    cv_cmd.add_argument("--seed", type=int, default=0)
    cv_cmd.add_argument("--tol", type=float, default=1e-6)
    cv_cmd.add_argument("--max-iter", type=int, default=100)
    cv_cmd.add_argument("--out", required=True, help="report CSV path")

    bench = sub.add_parser("benchmark", help="replicate table cells: reps x sigmas x methods")
    _add_sim_flags(bench)
    bench.add_argument("--reps", type=int, default=10)
    bench.add_argument("--method", default="mtot,pcr", help="comma-separated methods")
    bench.add_argument("--ranks", default="cv", help="fixed ranks for mtot, or 'cv'")
    bench.add_argument("--tol", type=float, default=1e-6)
    bench.add_argument("--max-iter", type=int, default=100)
    bench.add_argument("--out", required=True, help="table CSV path")
    return parser


def _spec_from_args(args, sigma=None, seed=None) -> SimSpec:
    try:
        n_r, n_theta = (int(v) for v in args.polar_grid.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad --polar-grid {args.polar_grid!r}, expected like 100x200") from exc
    return SimSpec(
        kind=args.kind,
        sigma=sigma if sigma is not None else (None if args.sigma is None else float(args.sigma)),
        seed=args.seed if seed is None else seed,
        m_train=args.train_size,
        m_test=args.test_size,
        num_curves=args.curves,
        curve_corr=args.corr,
        polar_shape=(n_r, n_theta),
        cartesian_step=args.cartesian_step,
    )


def _write_split(directory, name, data: GeneratedData, split, spec: SimSpec):
    dataset = data.train if split == "train" else data.test
    truth = data.train_truth if split == "train" else data.test_truth
    return save_dataset(directory, name, dataset, kind=spec.kind, seed=spec.seed,
                        sigma=spec.sigma, input_names=data.input_names, truth=truth)


def cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    data = generate(spec)
    out = Path(args.out)
    train_path = _write_split(out, "train", data, "train", spec)
    print(f"wrote {train_path}")
    print(f"  response {data.train.y.shape}, inputs "
          + ", ".join(f"{n}{x.shape}" for n, x in zip(data.input_names, data.train.xs)))
    if data.test is not None:
        test_path = _write_split(out, "test", data, "test", spec)
        print(f"wrote {test_path}")
    print(f"  kind={spec.kind} sigma={spec.sigma:g} seed={spec.seed}")
    return 0


def _parse_ranks(text: str, num_inputs: int):
    if text.strip().lower() == "cv":
        return None
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --ranks {text!r}") from exc
    if len(values) != num_inputs + 1:
        raise ConfigError(
            f"--ranks needs {num_inputs} input ranks plus one output rank, got {len(values)}"
        )
    return values[:-1], values[-1]


def _fit_mtot(dataset: Dataset, ranks_arg: str, tol: float, max_iter: int, seed: int) -> MtotModel:
    parsed = _parse_ranks(ranks_arg, dataset.num_inputs)
    if parsed is None:
        report = cross_validate(dataset, k=5, seed=seed, tol=tol, max_iter=max_iter)
        *in_ranks, out_rank = report.chosen
    else:
        in_ranks, out_rank = parsed
    cfg = FitConfig(input_ranks=in_ranks, output_rank=out_rank, tol=tol, max_iter=max_iter)
    return fit(dataset, cfg)


def _fit_pcr(dataset: Dataset, v_arg: str, seed: int) -> PcrModel:
    if v_arg.strip().lower() == "cv":
        _, model = pcr_cv(dataset, k=5, seed=seed)
        return model
    try:
        v = float(v_arg)
    except ValueError as exc:
        raise ConfigError(f"bad --v {v_arg!r}") from exc
    return pcr_fit(dataset, v)


def cmd_fit(args) -> int:
    dataset, _, _ = load_dataset(args.data)
    if args.method == "mtot":
        model = _fit_mtot(dataset, args.ranks, args.tol, args.max_iter, args.seed)
        save_model(args.out, model)
        print(f"wrote {args.out}")
        print(f"  final loss {model.loss_trace[-1]:.6g} after {model.iterations} sweeps; "
              f"ranks {[r[0] for r in model.input_ranks]} -> {model.output_ranks[0]}")
    else:
        model = _fit_pcr(dataset, args.v, args.seed)
        save_model(args.out, model)
        print(f"wrote {args.out}")
        print(f"  v={model.variance_fraction:g}, components "
              f"{model.input_loadings.shape[1]} -> {model.output_loadings.shape[1]}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    dataset, _, _ = load_dataset(args.data)
    expected = [tuple(s) for s in model.input_shapes]
    if dataset.input_shapes != expected:
        raise ConfigError(f"{args.data} has input shapes {dataset.input_shapes}, "
                          f"the model was fitted on {expected}")
    if isinstance(model, MtotModel):
        pred = predict(model, dataset.xs)
    else:
        pred = pcr_predict(model, dataset.xs)
    write_ten(args.out, pred)
    print(f"wrote {args.out} {pred.shape}")
    return 0


def cmd_cv(args) -> int:
    dataset, _, _ = load_dataset(args.data)
    if args.method == "mtot":
        report = cross_validate(dataset, k=args.k, seed=args.seed,
                                tol=args.tol, max_iter=args.max_iter)
        report.to_csv(args.out)
        print(f"wrote {args.out}")
        print(f"  chosen ranks {report.chosen}, mean RSS {report.mean_rss[report.chosen]:.6g}")
        if report.skipped:
            print(f"  skipped {len(report.skipped)} infeasible tuples")
    else:
        best_v, model = pcr_cv(dataset, k=args.k, seed=args.seed)
        with Path(args.out).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["v", "chosen"])
            for v in V_GRID:
                writer.writerow([f"{v:g}", int(v == best_v)])
        print(f"wrote {args.out}")
        print(f"  chosen v {best_v:g}")
    return 0


def _evaluate(kind: str, test: Dataset, truth, pred) -> dict[str, float]:
    out = {}
    for metric in _METRICS_BY_KIND[kind]:
        if metric == "smspe":
            out[metric] = smspe(test.y, pred)
        elif metric == "log_smspe":
            out[metric] = float(np.log(smspe(test.y, pred)))
        elif metric == "mspe":
            out[metric] = mspe(test.y, pred)
        elif metric == "msee":
            out[metric] = msee(test.y, test.y - truth, pred)
    return out


def _rep_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def cmd_benchmark(args) -> int:
    from .simulate import DEFAULT_SIGMA

    try:
        sigmas = ([float(tok) for tok in str(args.sigma).split(",")]
                  if args.sigma is not None else [DEFAULT_SIGMA[args.kind]])
    except ValueError as exc:
        raise ConfigError(f"bad --sigma {args.sigma!r}") from exc
    methods = [tok.strip() for tok in args.method.split(",") if tok.strip()]
    for method in methods:
        if method not in ("mtot", "pcr"):
            raise ConfigError(f"unknown method {method!r}")
    if args.reps < 1:
        raise ConfigError("--reps must be at least 1")
    metric_names = _METRICS_BY_KIND[args.kind]

    runs = []  # (sigma, rep, seed, method, metric, value, seconds)
    cells: dict[tuple, list[float]] = {}
    times: dict[tuple, list[float]] = {}
    for sigma in sigmas:
        for rep in range(args.reps):
            rep_seed = _rep_seed(args.seed, rep)
            spec = _spec_from_args(args, sigma=sigma, seed=rep_seed)
            if spec.m_test < 1:
                raise ConfigError("benchmark needs a positive test size")
            data = generate(spec)
            for method in methods:
                start = time.perf_counter()
                try:
                    if method == "mtot":
                        model = _fit_mtot(data.train, args.ranks, args.tol,
                                          args.max_iter, rep_seed)
                        pred = predict(model, data.test.xs)
                    else:
                        model = _fit_pcr(data.train, "cv", rep_seed)
                        pred = pcr_predict(model, data.test.xs)
                except (ConfigError, NumericalError) as exc:
                    raise type(exc)(
                        f"benchmark failed at rep={rep} sigma={spec.sigma:g} method={method}: {exc}"
                    ) from exc
                elapsed = time.perf_counter() - start
                values = _evaluate(args.kind, data.test, data.test_truth, pred)
                for metric, value in values.items():
                    runs.append((spec.sigma, rep, rep_seed, method, metric, value, elapsed))
                    cells.setdefault((spec.sigma, method, metric), []).append(value)
                times.setdefault((spec.sigma, method), []).append(elapsed)

    def cell_text(values) -> str:
        mean = float(np.mean(values))
        if len(values) < 2:
            return f"{mean:.6g}"
        return f"{mean:.6g} ({float(np.std(values, ddof=1)):.6g})"

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = ["sigma"]
    for method in methods:
        header += [f"{method}_{metric}" for metric in metric_names]
        header.append(f"{method}_time_s")
    with out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for sigma in sigmas:
            row = [f"{sigma:g}"]
            for method in methods:
                for metric in metric_names:
                    row.append(cell_text(cells[(sigma, method, metric)]))
                row.append(cell_text(times[(sigma, method)]))
            writer.writerow(row)

    log_path = out.with_name(out.stem + "_runs.csv")
    with log_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sigma", "replication", "seed", "method", "metric", "value", "seconds"])
        for sigma, rep, rep_seed, method, metric, value, elapsed in runs:
            writer.writerow([f"{sigma:g}", rep, rep_seed, method, metric,
                             f"{value:.17g}", f"{elapsed:.3f}"])
    print(f"wrote {out} and {log_path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "fit": cmd_fit,
        "predict": cmd_predict,
        "cv": cmd_cv,
        "benchmark": cmd_benchmark,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
