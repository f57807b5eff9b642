"""Benchmark trajectory recording and the regression gate.

Benchmarks that opt in (``pytest benchmarks/... --bench-record``) append
keyed results to a flat JSON trajectory file in the repository root —
``BENCH_serve.json`` for the serving-throughput numbers,
``BENCH_online.json`` for the Fig. 6c online-time numbers.  Each entry
is::

    {"commit": "a914b88", "timestamp": "2026-08-06T12:00:00+00:00",
     "metric": "batched_qps", "value": 8123.4, "higher_is_better": true}

so the file doubles as a per-commit performance history: nothing is ever
overwritten, and plotting a metric over time is a one-liner.

``python benchmarks/record.py --check-regression BENCH_serve.json``
compares the **latest** entry of every metric against the **best**
earlier entry and exits nonzero when any metric degraded by more than
``--threshold`` (default 20%).  "Degraded" respects the entry's
``higher_is_better`` flag, so throughput (q/s, higher better) and
latency (ms/query, lower better) trajectories live side by side.

The gate compares against the best rather than the previous entry so a
slow regression over many commits cannot ratchet the baseline down with
it — each step may be under the threshold, but the cumulative drift from
the best recorded run is what the check measures.

When a check fails and recorded continuous profiles exist under
``benchmarks/profiles/`` (``bench_serve_throughput.py --bench-record``
rotates ``<name>.latest.json`` / ``<name>.baseline.json`` pairs), the
failure is followed by an attribution table: the frames and plan-op
kinds whose *self-time share* moved most between baseline and latest
(``repro.obs.prof.diff_profiles``) — the same table ``cli diff``
prints, so a red gate names its suspects instead of just a number.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import subprocess
import sys

__all__ = ["record", "load_entries", "check_regression",
           "RegressionError", "BENCH_DIR", "METRIC_DIRECTIONS",
           "PROFILE_DIR"]

#: Trajectory files live in the repository root, next to the other
#: capitalised status files (README.md, ROADMAP.md, ...).
BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent

DEFAULT_THRESHOLD = 0.20

#: Canonical improvement direction for gated metrics whose name alone
#: does not say so.  ``record(higher_is_better=None)`` consults this, so
#: every benchmark that tracks one of these keys agrees with the gate:
#: the scaling crossover is the entity count where sharding starts to
#: win — *lower* means the data plane pays for itself sooner — while
#: the qps keys follow the usual higher-is-better convention.
METRIC_DIRECTIONS: dict[str, bool] = {
    "scaling_crossover_entities": False,
    "sharded_qps_100k": True,
    # continuous-profiler self-measured overhead (fraction of the
    # sampling interval one pass costs) — lower is better
    "prof_overhead_ratio": False,
    # cumulative plan-op wall seconds over the fixed compile workload —
    # lower is better (the plan executor getting faster)
    "plan_stage_seconds_total": False,
}

#: recorded continuous profiles for regression attribution:
#: ``<name>.latest.json`` (this run) next to ``<name>.baseline.json``
PROFILE_DIR = BENCH_DIR / "benchmarks" / "profiles"


class RegressionError(Exception):
    """A tracked metric degraded beyond the allowed threshold."""


def _current_commit() -> str:
    """Short hash of HEAD; ``unknown`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=BENCH_DIR,
            capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_entries(path) -> list[dict]:
    """The trajectory as a list of entry dicts ([] for a missing file)."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    entries = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise ValueError(f"{path}: expected a JSON list of entries")
    return entries


def record(path, metrics: dict[str, float], *,
           higher_is_better: bool | dict[str, bool] | None = True,
           commit: str | None = None,
           timestamp: str | None = None) -> list[dict]:
    """Append one entry per metric to the trajectory at ``path``.

    ``metrics`` maps metric name to value; ``higher_is_better`` applies
    to all of them, per-metric via a dict, or ``None`` to look each
    metric up in :data:`METRIC_DIRECTIONS` (defaulting to True).
    Returns the appended entries.  The write is atomic (tmp file +
    rename) so a crashed benchmark run cannot truncate the history.
    """
    path = pathlib.Path(path)
    commit = commit or _current_commit()
    timestamp = timestamp or datetime.datetime.now(
        datetime.timezone.utc).isoformat(timespec="seconds")
    entries = load_entries(path)
    appended = []
    for metric, value in metrics.items():
        if higher_is_better is None:
            hib = METRIC_DIRECTIONS.get(metric, True)
        elif isinstance(higher_is_better, bool):
            hib = higher_is_better
        else:
            hib = bool(higher_is_better.get(metric, True))
        appended.append({"commit": commit, "timestamp": timestamp,
                         "metric": metric, "value": float(value),
                         "higher_is_better": hib})
    entries.extend(appended)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    tmp.replace(path)
    return appended


def check_regression(path, threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Compare each metric's latest entry against its best earlier one.

    Returns ``{metric: {"latest": v, "best": b, "change": fraction}}``
    for every metric with at least two entries; raises
    :class:`RegressionError` if any metric degraded more than
    ``threshold`` (a fraction, e.g. ``0.2`` = 20%).
    """
    entries = load_entries(path)
    by_metric: dict[str, list[dict]] = {}
    for entry in entries:
        by_metric.setdefault(entry["metric"], []).append(entry)

    report: dict[str, dict] = {}
    failures: list[str] = []
    for metric, series in by_metric.items():
        if len(series) < 2:
            continue
        latest = series[-1]
        earlier = series[:-1]
        hib = bool(latest.get("higher_is_better", True))
        values = [float(e["value"]) for e in earlier]
        best = max(values) if hib else min(values)
        if best == 0:
            continue
        # positive change = degradation, in either direction convention
        if hib:
            change = (best - float(latest["value"])) / best
        else:
            change = (float(latest["value"]) - best) / best
        report[metric] = {"latest": float(latest["value"]), "best": best,
                          "change": change, "higher_is_better": hib}
        if change > threshold:
            direction = "dropped" if hib else "rose"
            failures.append(
                f"{metric}: {direction} {100 * change:.1f}% "
                f"(latest {latest['value']:.4g} vs best {best:.4g}, "
                f"threshold {100 * threshold:.0f}%)")
    if failures:
        raise RegressionError(f"{pathlib.Path(path).name}: "
                              + "; ".join(failures))
    return report


def _print_attribution(prof_dir) -> None:
    """Self-time attribution tables from recorded profile pairs.

    For every ``<name>.latest.json`` with a ``<name>.baseline.json``
    sibling under ``prof_dir``, print the frame and plan-op share-delta
    tables.  Quietly does nothing when no pairs (or the repro package)
    are available — attribution decorates a failure, it must never mask
    one.
    """
    prof_dir = pathlib.Path(prof_dir)
    if not prof_dir.is_dir():
        return
    try:
        from repro.obs.prof import (diff_plan_ops, diff_profiles,
                                    format_diff, load_profile_payload)
    except ImportError:
        sys.path.insert(0, str(BENCH_DIR / "src"))
        try:
            from repro.obs.prof import (diff_plan_ops, diff_profiles,
                                        format_diff,
                                        load_profile_payload)
        except ImportError:
            return
    for latest_path in sorted(prof_dir.glob("*.latest.json")):
        base_path = latest_path.with_name(
            latest_path.name.replace(".latest.json", ".baseline.json"))
        if not base_path.exists():
            continue
        try:
            base, base_ops = load_profile_payload(base_path)
            latest, latest_ops = load_profile_payload(latest_path)
        except (ValueError, OSError, json.JSONDecodeError):
            continue
        name = latest_path.name[:-len(".latest.json")]
        print(f"\nattribution ({name}): self-time share deltas, "
              f"baseline -> latest")
        print(format_diff(diff_profiles(base, latest, limit=10)))
        if base_ops or latest_ops:
            print(format_diff(diff_plan_ops(base_ops, latest_ops,
                                            limit=10),
                              title="plan-op share of plan wall time"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark trajectory tool: inspect BENCH_*.json "
                    "histories and gate on regressions")
    parser.add_argument("paths", nargs="+", metavar="BENCH.json",
                        help="trajectory file(s) to check or show")
    parser.add_argument("--check-regression", action="store_true",
                        help="exit nonzero if any metric's latest entry "
                             "degraded more than --threshold vs its best "
                             "earlier entry")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="allowed fractional degradation "
                             "(default 0.2 = 20%%)")
    parser.add_argument("--prof-dir", default=str(PROFILE_DIR),
                        help="recorded-profile directory consulted for "
                             "regression attribution (default "
                             "benchmarks/profiles/)")
    args = parser.parse_args(argv)

    status = 0
    for path in args.paths:
        entries = load_entries(path)
        name = pathlib.Path(path).name
        if not entries:
            print(f"{name}: no entries")
            if args.check_regression:
                status = 1
            continue
        if args.check_regression:
            try:
                report = check_regression(path, threshold=args.threshold)
            except RegressionError as exc:
                print(f"REGRESSION: {exc}")
                _print_attribution(args.prof_dir)
                status = 1
                continue
            for metric, row in sorted(report.items()):
                print(f"{name}: {metric}: latest {row['latest']:.4g} "
                      f"vs best {row['best']:.4g} "
                      f"({100 * row['change']:+.1f}% degradation)")
            if not report:
                print(f"{name}: fewer than two entries per metric; "
                      f"nothing to compare")
        else:
            for entry in entries:
                print(f"{name}: {entry['commit']} {entry['timestamp']} "
                      f"{entry['metric']} = {entry['value']:.4g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
