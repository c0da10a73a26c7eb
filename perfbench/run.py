"""mtot benchmark: closed-loop table replications, timed per layer.

    python3 perfbench/run.py --workload {curve_cv,wafer_desk,jump_files} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/` there
and nowhere else. One client runs one replication ("rep") at a time, for at
least `--seconds` and at least the workload's scored reps. Rep `i` uses the
seed the `mtot benchmark` CLI derives for replication `i` of `--seed`.

With `--trace 0` every rep is untraced and the run reports the end-to-end
metrics. With `--trace 1` even reps are traced and odd reps are not; the run
reports per-layer medians from the traced reps' spans, and the traced minus
untraced median rep time as `trace_overhead_s`. Spans and per-rep records
are written to `perfbench/out/`.

The last stdout line is the result object (`correct`, `attempted`, `failed`,
`metrics`); the line before it is a `detail` object with the environment,
every rep's wall time, errors, counts and, when traced, layer shares.
BLAS and OpenMP threads are pinned to 1 before numpy is imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5


def _import_mtot():
    src = ROOT / "src"
    if not (src / "mtot" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mtot package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import mtot

    if Path(mtot.__file__).resolve().parent != src / "mtot":
        raise SystemExit(f"perfbench: imported mtot from {mtot.__file__}, not from {src}")
    return mtot


def _warm_up():
    """Touch the solver, predictor and PCR once on tiny data, so lazy
    imports and BLAS start-up land in set-up rather than in the first rep."""
    import numpy as np
    from mtot import Dataset, FitConfig, fit, pcr_fit, pcr_predict, predict

    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((20, 6, 5)), [rng.standard_normal((20, 8))])
    predict(fit(data, FitConfig(input_ranks=[2], output_rank=2)), data.xs)
    pcr_predict(pcr_fit(data, 0.9), data.xs)


def _setup_seconds() -> list[float]:
    """Wall time of fresh processes that start, import mtot and warm up,
    i.e. everything a run does before its first timed rep."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe"],
                       check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": _git_commit(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("curve_cv", "wafer_desk", "jump_files"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _pin_threads()
    _import_mtot()
    if args.probe:
        _warm_up()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import numpy as np
    from mtot import ConfigError, NumericalError
    from mtot.cli import _rep_seed
    from spans import COUNTS, UNITS, RepTrace, layer_shares, median_or_zero, per_layer_metrics
    from workloads import WORKLOADS, GateError

    w = WORKLOADS[args.workload]
    setup = [] if args.trace else _setup_seconds()
    _warm_up()
    OUT.mkdir(exist_ok=True)

    spans: list = []
    records = []
    zero = time.perf_counter()
    i = 0
    while i < w.scored_reps or time.perf_counter() - zero < args.seconds:
        traced = bool(args.trace) and i % 2 == 0
        rt = RepTrace(i, spans if traced else None, zero)
        record = {"rep": i, "seed": _rep_seed(args.seed, i), "traced": traced}
        start = time.perf_counter()
        try:
            with rt.span("rep"):
                record["err"], record["pcr_err"] = w.rep(w, rt, record["seed"], OUT)
        except (GateError, ConfigError, NumericalError, np.linalg.LinAlgError) as exc:
            record["failure"] = f"{type(exc).__name__}: {exc}"
        record["wall_s"] = time.perf_counter() - start
        record["counts"] = dict(rt.counts)
        records.append(record)
        i += 1
        if i == w.scored_reps:
            # the peak over the scored reps repeats for a fixed seed; later
            # reps only add timing samples, and their count varies by run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    ok = [r for r in records if "failure" not in r]
    failed_ids = {r["rep"] for r in records} - {r["rep"] for r in ok}
    spans = [s for s in spans if s["rep"] not in failed_ids]
    scored = [r for r in ok if r["rep"] < w.scored_reps]
    # a run with failed reps reports correct=false; 0.0 keeps its metrics valid JSON
    err_mean = statistics.fmean(r["err"] for r in scored) if scored else 0.0
    pcr_err_mean = (statistics.fmean(r["pcr_err"] for r in scored)
                    if scored and w.pcr_err_ceiling is not None else None)

    if args.trace:
        layer = per_layer_metrics(spans, {r["rep"]: r["counts"] for r in ok},
                                  [r["rep"] for r in scored],
                                  [r["wall_s"] for r in ok if not r["traced"]])
        metrics = {name: _metric(value, UNITS.get(name, "s")) for name, value in layer.items()}
        metrics["pcr.err_mean"] = _metric(pcr_err_mean or 0.0, "unitless")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "rep_s_p50": _metric(median_or_zero(r["wall_s"] for r in ok), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "err_mean": _metric(err_mean, "unitless"),
        }

    trace_path = OUT / f"trace-{w.name}-seed{args.seed}-trace{args.trace}.json"
    trace_path.write_text(json.dumps({"spans": spans, "reps": records}) + "\n")
    detail = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": _environment(),
        "setup_s": setup,
        "reps": len(records), "scored_reps": len(scored), "failed": len(failed_ids),
        "failed_frac": len(failed_ids) / len(records),
        "failures": [r["failure"] for r in records if "failure" in r],
        "err_metric": w.metric, "err_mean": err_mean, "pcr_err_mean": pcr_err_mean,
        "counts": {name: [r["counts"].get(name, 0) for r in scored] for name in COUNTS},
        "rep_s": [r["wall_s"] for r in ok],
        "shares": layer_shares(spans) if args.trace else None,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failed_ids and bool(scored), "attempted": len(records),
                      "failed": len(failed_ids), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
