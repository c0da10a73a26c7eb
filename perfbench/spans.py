"""In-memory spans and counts for one benchmark rep, and the per-layer
metrics derived from them.

A span is a dict: id, name, start, end (seconds on the run's
``perf_counter`` clock), parent span id and rep id. Spans are kept only for
traced reps; counts (work done by a layer, such as ALS fits or bytes
written) are kept for every rep because they are deterministic outputs, not
timings.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager

# Layer spans the workloads record, by metric name; each is timed from the
# benchmark's side of a public `mtot` call.
LAYER_SPANS = (
    "simulate.generate",
    "tuning.cross_validate",
    "solver.fit",
    "solver.predict",
    "pcr.pcr_cv",
    "pcr.pcr_predict",
    "io.save_dataset",
    "io.load_dataset",
    "io.save_model",
    "io.load_model",
    "io.write_ten",
    "metrics.score",
)
COUNTS = ("tuning.fits", "solver.sweeps", "io.bytes_written", "io.bytes_read")
# Units of the per-layer metrics that are not in seconds.
UNITS = {"tuning.fits": "count", "solver.sweeps": "count", "io.bytes_written": "count",
         "tuning.fit_ms": "ms", "io.mb_per_s": "MB/s"}


class RepTrace:
    """Span and count recorder for one rep; spans go to a shared list when
    tracing is on and are dropped otherwise."""

    def __init__(self, rep_id: int, spans: list | None, clock_zero: float):
        self.rep_id = rep_id
        self.counts: Counter = Counter()
        self._spans = spans
        self._zero = clock_zero
        self._stack: list[int] = []

    def count(self, name: str, n: int):
        self.counts[name] += int(n)

    @contextmanager
    def span(self, name: str):
        if self._spans is None:
            yield
            return
        record = {"id": len(self._spans), "name": name,
                  "start": time.perf_counter() - self._zero, "end": None,
                  "parent": self._stack[-1] if self._stack else None, "rep": self.rep_id}
        self._spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._zero


def _duration(span) -> float:
    return span["end"] - span["start"]


def layer_seconds(spans: list) -> dict[int, dict[str, float]]:
    """Per traced rep: total seconds per layer span name, plus the rep's own
    wall time (``rep``) and its self time (``rep.self``)."""
    by_rep: dict[int, dict[str, float]] = {}
    roots = {s["id"]: s for s in spans if s["name"] == "rep"}
    for root in roots.values():
        by_rep[root["rep"]] = dict.fromkeys(LAYER_SPANS, 0.0)
        by_rep[root["rep"]]["rep"] = _duration(root)
        by_rep[root["rep"]]["rep.self"] = _duration(root)
    for s in spans:
        if s["name"] == "rep":
            continue
        totals = by_rep[s["rep"]]
        totals[s["name"]] += _duration(s)
        if s["parent"] in roots:
            totals["rep.self"] -= _duration(s)
    return by_rep


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(spans: list, counts_by_rep: dict[int, dict], scored: list[int],
                      untraced_walls: list[float]) -> dict[str, float]:
    """Per-rep medians of every layer metric.

    Times come from the traced reps' spans; work counts come from the
    `scored` reps, so they repeat exactly for a fixed seed. ``tuning.fit_ms``
    and ``io.mb_per_s`` are per-rep ratios of a traced rep's own time and
    counts. ``trace_overhead_s`` is the traced minus the untraced median rep
    time of the same run.
    """
    reps = layer_seconds(spans)
    out = {f"{name}_s": median_or_zero(r[name] for r in reps.values()) for name in LAYER_SPANS}

    fit_ms, mb_per_s = [], []
    for rep_id, r in reps.items():
        counts = Counter(counts_by_rep[rep_id])
        if counts["tuning.fits"]:
            fit_ms.append(1e3 * r["tuning.cross_validate"] / counts["tuning.fits"])
        io_s = sum(v for k, v in r.items() if k.startswith("io."))
        if io_s > 0:
            mb_per_s.append((counts["io.bytes_written"] + counts["io.bytes_read"]) / io_s / 1e6)
    for name in ("tuning.fits", "solver.sweeps", "io.bytes_written"):
        out[name] = median_or_zero(counts_by_rep[i].get(name, 0) for i in scored)
    out["tuning.fit_ms"] = median_or_zero(fit_ms)
    out["io.mb_per_s"] = median_or_zero(mb_per_s)
    out["rep.self_s"] = median_or_zero(r["rep.self"] for r in reps.values())
    traced_walls = [r["rep"] for r in reps.values()]
    out["trace_overhead_s"] = median_or_zero(traced_walls) - median_or_zero(untraced_walls)
    return out


def layer_shares(spans: list) -> dict[str, float]:
    """Median share of the traced rep wall time spent in each layer span."""
    reps = list(layer_seconds(spans).values())
    names = LAYER_SPANS + ("rep.self",)
    return {name: median_or_zero(r[name] / r["rep"] for r in reps) for name in names}
