#!/usr/bin/env python3
"""bench_e2e: the end-to-end benchmark of the HaLk serving and training stack.

Three ways to call it (README.md has the details)::

    # everything: five workloads, end-to-end and per-layer metrics
    python benchmarks/e2e/run.py [--seed 0] [--workload NAME]...
                                 [--repeat N] [--out FILE] [--quick]

    # one run of one workload, as the benchmark driver calls it; the last
    # line of standard output is the result as one JSON object
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S
                                 --trace 0|1

    # two result files of the first form against the bounds
    python benchmarks/e2e/run.py --compare A.json B.json

The first form runs each (repeat, workload) pair in a child process of
the second form, so every number it reports was measured exactly as the
driver measures it, in a fresh process whose memory and leftovers are its
own.  The second form in turn measures in a child of its own and returns
only when every process that child started has ended
(``harness.supervise``).  The program is imported from ``src/`` next to
this directory; no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
# at import time, not in main(): the shard pool spawns workers that
# re-import this file and must find `repro` the same way
for _path in (str(SRC), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from catalogue import (END_TO_END, PER_LAYER, WORKLOAD_END_TO_END,  # noqa: E402
                       WORKLOAD_WHY)

#: seconds of timed phase per run; BENCHMARK.json's ``run_seconds``
DEFAULT_SECONDS = 15
QUICK_SECONDS = 2
#: a run that has not finished by then is hung and is killed, with some
#: seconds left to see its processes end before the driver's 180
CHILD_TIMEOUT_S = 165


def selected_metrics(workload, mode: str) -> dict:
    """The metrics a run of ``mode`` reports, as ``{name: {value, unit}}``.

    ``0``: the end-to-end metrics BENCHMARK.json lists.  ``1``: every
    per-layer metric, 0 for a layer the workload never enters.  ``both``:
    the two, plus the end-to-end metrics only this workload has.
    """
    measured = workload.metrics
    names: list[tuple[str, str]] = []
    if mode in ("0", "both"):
        names += [(name, unit) for name, unit, _b, _bound in END_TO_END]
    if mode == "both":
        names += [(name, unit) for name, unit, _b, where
                  in WORKLOAD_END_TO_END if workload.name in where]
    if mode in ("1", "both"):
        names += [(name, unit) for name, unit, _b in PER_LAYER]
    out = {}
    for name, unit in names:
        value, unit = measured.get(name, (0.0, unit))
        out[name] = {"value": value, "unit": unit}
    return out


def run_supervised(args) -> int:
    """One run of one workload in a child process, and its leftovers."""
    if not (SRC / "repro").is_dir():
        print(f"bench_e2e: the program's source is not at {SRC}",
              file=sys.stderr)
        return 2
    from harness import supervise

    command = [sys.executable, str(HERE / "run.py"), "--in-process",
               "--workload", args.workload[0], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.quick:
        command.append("--quick")
    return supervise(command, CHILD_TIMEOUT_S)


def run_single(args) -> int:
    """One run of one workload in this process."""
    from workloads import WORKLOADS, BenchmarkFailure

    name = args.workload[0]
    workload = WORKLOADS[name](args.seed, args.seconds, quick=args.quick)
    try:
        workload.run(end_to_end=args.trace in ("0", "both"),
                     traced=args.trace in ("1", "both"))
    except BenchmarkFailure as exc:
        print(f"bench_e2e: {name}: {exc}", file=sys.stderr)
        return 1
    if workload.model_source == "retrained":
        print("model_source retrained")
    for problem in workload.problems:
        print(f"# {name} PROBLEM: {problem}")
    metrics = selected_metrics(workload, args.trace)
    for metric, reading in metrics.items():
        print(f"{name} {metric} {reading['value']:.6g} {reading['unit']}")
    print(json.dumps({"correct": workload.correct,
                      "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0 if workload.correct else 1


def run_all(args) -> int:
    """Every selected workload, ``--repeat`` times, interleaved."""
    from compare import summarise

    names = args.workload or list(WORKLOAD_WHY)
    runs, healthy = [], True
    for repeat in range(args.repeat):
        for name in names:
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", "both"]
            if args.quick:
                command.append("--quick")
            # no timeout here: the child kills a hung run by itself
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True)
            lines = child.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(child.stdout, end="")
                print(f"# {name} PROBLEM: run exited {child.returncode} "
                      f"without a result")
                healthy = False
                continue
            print("\n".join(lines[:-1]))
            healthy &= child.returncode == 0 and result["correct"]
            runs.append(dict(result, workload=name, repeat=repeat))
    summary = summarise(runs) if runs else {}
    if args.repeat > 1:
        print("# medians over repeats: workload metric median q1 q3 unit")
        for workload, metrics in summary.items():
            for metric, s in metrics.items():
                print(f"{workload} {metric} {s['median']:.6g} "
                      f"{s['q1']:.6g} {s['q3']:.6g} {s['unit']}")
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "quick": args.quick, "repeats": args.repeat,
                               "runs": runs, "summary": summary}, indent=1))
    print(f"# wrote {out}")
    return 0 if healthy else 1


def run_compare(a_path: str, b_path: str) -> int:
    from compare import compare

    a_runs = json.loads(pathlib.Path(a_path).read_text())["runs"]
    b_runs = json.loads(pathlib.Path(b_path).read_text())["runs"]
    rows = compare(a_runs, b_runs)
    print("# workload metric A_median B_median verdict")
    for workload, metric, a_mid, b_mid, result in rows:
        print(f"{workload} {metric} {a_mid:.6g} {b_mid:.6g} {result}")
    counts = {v: sum(row[4] == v for row in rows)
              for v in ("regression", "unresolved", "unchanged")}
    print("# " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["regression"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", choices=("0", "1", "both"))
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS}s phases, 5 training epochs, "
                             f"one set-up (smoke test)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "out" / "result.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--make-fixture", action="store_true",
                        help="retrain and rewrite the shipped model fixture")
    parser.add_argument("--in-process", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.compare:
        return run_compare(*args.compare)
    if args.make_fixture:
        from workloads import write_fixture
        write_fixture()
        return 0
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        return run_single(args) if args.in_process else run_supervised(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
