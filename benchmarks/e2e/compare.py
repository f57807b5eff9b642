"""Repeat statistics and the A-versus-B verdict of ``run.py --compare``.

A result file holds one entry per (repeat, workload) run.  Per metric
and workload the runs reduce to a median and quartiles; two files
compare by the rule of the choosing-metrics guide: a median worse by
more than the bound is a **regression**; otherwise, when the run-to-run
spread is wider than the bound, the pair is **unresolved** (unless every
run of B reads better than every run of A); otherwise **unchanged**.
"""

from __future__ import annotations

import statistics

from catalogue import BETTER, COMPARE_BOUNDS, WORKLOAD_END_TO_END

#: metrics that only some workloads have -> those workloads
_ONLY_ON = {name: where for name, _unit, _better, where in WORKLOAD_END_TO_END}


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def grouped(runs) -> dict:
    """``{workload: {metric: [value per run]}}``."""
    out: dict = {}
    for run in runs:
        metrics = out.setdefault(run["workload"], {})
        for name, reading in run["metrics"].items():
            metrics.setdefault(name, []).append(reading["value"])
    return out


def gated(runs) -> dict:
    """:func:`grouped`, less what ``--compare`` has no bound for."""
    # a per-layer list may carry a workload metric as 0 elsewhere
    return {workload: {name: values for name, values in metrics.items()
                       if name in COMPARE_BOUNDS
                       and workload in _ONLY_ON.get(name, (workload,))}
            for workload, metrics in grouped(runs).items()}


def summarise(runs) -> dict:
    """Median and quartiles of every metric of every workload."""
    units = {name: reading["unit"] for run in runs
             for name, reading in run["metrics"].items()}
    summary: dict = {}
    for workload, metrics in grouped(runs).items():
        for name, values in metrics.items():
            q1, mid, q3 = quartiles(values)
            summary.setdefault(workload, {})[name] = {
                "median": mid, "q1": q1, "q3": q3, "n": len(values),
                "unit": units[name]}
    return summary


def allowed(metric: str, baseline: float) -> float:
    """Absolute amount by which ``metric`` may worsen from ``baseline``."""
    kind, *amounts = COMPARE_BOUNDS[metric]
    if kind == "abs":
        return amounts[0]
    relative = amounts[0] * abs(baseline)
    return relative if kind == "rel" else max(relative, amounts[1])


def verdict(metric: str, a_values, b_values) -> tuple[str, float, float]:
    """``(verdict, A median, B median)`` for one (metric, workload)."""
    sign = 1.0 if BETTER[metric] == "lower" else -1.0
    a_q1, a_mid, a_q3 = quartiles(a_values)
    b_q1, b_mid, b_q3 = quartiles(b_values)
    limit = allowed(metric, a_mid)
    if sign * (b_mid - a_mid) > limit:
        return "regression", a_mid, b_mid
    spread = max(a_q3 - a_q1, b_q3 - b_q1)
    b_always_better = max(sign * b for b in b_values) \
        < min(sign * a for a in a_values)
    if spread > limit and not b_always_better:
        return "unresolved", a_mid, b_mid
    return "unchanged", a_mid, b_mid


def compare(a_runs, b_runs) -> list[tuple]:
    """Rows ``(workload, metric, A median, B median, verdict)``."""
    a_side, b_side = gated(a_runs), gated(b_runs)
    rows = []
    for workload in a_side:
        for metric, a_values in a_side[workload].items():
            b_values = b_side.get(workload, {}).get(metric)
            if b_values:
                result, a_mid, b_mid = verdict(metric, a_values, b_values)
                rows.append((workload, metric, a_mid, b_mid, result))
    return rows
