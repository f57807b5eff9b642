"""Smoke test of the end-to-end benchmark (not part of tier-1: it takes
about a minute and binds a loopback port).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -m "" -p no:cacheprovider
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import run as bench  # noqa: E402


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == bench.DEFAULT_SECONDS
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == catalogue.WORKLOAD_WHY
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(catalogue.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(catalogue.PER_LAYER)


def test_quick_run_reports_every_workload_and_metric(tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0, done.stdout
    result = json.loads(out.read_text())
    runs = {run["workload"]: run for run in result["runs"]}
    assert set(runs) == set(catalogue.WORKLOAD_WHY)
    layer_names = {name for name, _unit, _better in catalogue.PER_LAYER}
    for workload, run in runs.items():
        metrics = run["metrics"]
        assert run["correct"] and run["failed"] == 0, workload
        for name, _unit, _better, _bound in catalogue.END_TO_END:
            assert metrics[name]["value"] > 0, (workload, name)
        for name, _unit, _better, where in catalogue.WORKLOAD_END_TO_END:
            if name not in layer_names:  # those are zero-filled everywhere
                assert (name in metrics) == (workload in where), \
                    (workload, name)
        assert layer_names <= set(metrics), workload
        assert all(metrics[name]["value"] >= 0 for name in layer_names)
        if workload != "train_mini":
            assert metrics["failed_ratio"]["value"] == 0
        assert (HERE / "out" / f"trace-{workload}.json").is_file()
    trace = json.loads((HERE / "out" / "trace-mini_mixed.json").read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {"id", "parent", "request"} <= set(spans[0]["args"])


def test_empty_checkout_exits_nonzero_without_a_result(tmp_path):
    """Without the program's source there is nothing to measure."""
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "mini_mixed",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
