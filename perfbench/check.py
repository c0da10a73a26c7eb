"""Self-checks of the benchmark itself, run from the checkout root.

    python3 perfbench/check.py determinism --workload W [--seed N] [--seconds S]
        Runs W twice with one seed, once untraced and once traced, and
        requires identical err_mean, pcr_err_mean and per-rep counts
        (tuning.fits, solver.sweeps, io.bytes_written). Exit 1 on a mismatch.

    python3 perfbench/check.py spread [--workloads a,b] [--seeds 10] [--sets 1]
        Runs each workload untraced on seeds 1..N, `sets` times over, and
        prints, per set, each end-to-end metric's quartiles and its spread
        (Q3 - Q1) / median next to the bound in BENCHMARK.json, and how far
        a later set's median moved from the first set's. Exit 1
        if a spread other than setup_s exceeds its bound, or a median moved
        by more than its bound in the worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its detail and result objects."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    *_, detail_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result: {detail_line}")
    return json.loads(detail_line)["detail"], result


def determinism(args) -> int:
    runs = [_run(args.workload, args.seed, args.seconds, trace) for trace in (0, 1)]
    keys = ("err_mean", "pcr_err_mean", "counts")
    first, second = ({k: detail[k] for k in keys} for detail, _ in runs)
    print(json.dumps(first))
    if first != second:
        print(json.dumps(second))
        print(f"determinism: {args.workload} seed {args.seed} differs between runs")
        return 1
    print(f"determinism: {args.workload} seed {args.seed} identical over two runs")
    return 0


def spread(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    log = HERE / "out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    failed = False
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for seed in range(1, args.seeds + 1):
                detail, result = _run(workload, seed, seconds, 0)
                with log.open("a") as handle:
                    handle.write(json.dumps({"detail": detail, "result": result}) + "\n")
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = statistics.median(sets[0][name])
            for k, values in enumerate(sets):
                q1, med, q3 = statistics.quantiles(values[name], n=4)
                rel = (q3 - q1) / med
                line = (f"{workload:11s} {name:12s} set {k + 1} q1 {q1:.6g} median {med:.6g} "
                        f"q3 {q3:.6g} spread {rel:.4f} bound {bound} (third {bound / 3:.4f})")
                if name != "setup_s" and rel > bound:
                    failed = True
                    line += " SPREAD>BOUND"
                if k:
                    drift = (med / first - 1.0) * (-1 if m["better"] == "higher" else 1)
                    line += f" drift {drift:+.4f}"
                    if drift > bound:
                        failed = True
                        line += " DRIFT>BOUND"
                print(line, flush=True)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    det = sub.add_parser("determinism")
    det.add_argument("--workload", required=True)
    det.add_argument("--seed", type=int, default=1)
    det.add_argument("--seconds", type=int, default=1)
    spr = sub.add_parser("spread")
    spr.add_argument("--workloads", default="")
    spr.add_argument("--seeds", type=int, default=10)
    spr.add_argument("--sets", type=int, default=1)
    spr.add_argument("--seconds", type=int, default=0, help="default: BENCHMARK.json run_seconds")
    args = parser.parse_args(argv)
    return determinism(args) if args.command == "determinism" else spread(args)


if __name__ == "__main__":
    sys.exit(main())
