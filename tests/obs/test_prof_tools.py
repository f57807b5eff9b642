"""The profile-diff tooling: ``cli diff`` and the regression
gate's attribution table (``benchmarks/record.py``).

Both consume recorded ``/debug/prof`` payloads from disk, so these
tests fabricate baseline/latest pairs with a known injected shift and
assert the shifted frame (and plan-op kind) is what gets named.
"""

import json
import pathlib
import sys

import pytest

from repro.cli import main as cli_main

pytestmark = [pytest.mark.obs, pytest.mark.prof]

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _payload(hot_count, cold_count, project_s):
    """A /debug/prof payload whose hot-frame weight is adjustable."""
    stacks = {"serve@1;main;serve.py:handle;model.py:hot_frame":
              hot_count,
              "serve@1;main;serve.py:handle;kg.py:cold_frame":
              cold_count}
    return {
        "merged": {"stacks": stacks,
                   "samples": hot_count + cold_count,
                   "duration_s": 1.0, "hz": 67.0, "pid": 1,
                   "role": "merged", "overhead_ratio": 0.01},
        "plan_ops": {"project": project_s, "anchor": 1.0,
                     "finalize": 1.0},
    }


@pytest.fixture()
def recorded_pair(tmp_path):
    baseline = tmp_path / "serve_profile.baseline.json"
    latest = tmp_path / "serve_profile.latest.json"
    # baseline 50/50; latest: hot_frame takes 80% and the project op
    # doubles its share of plan time
    baseline.write_text(json.dumps(_payload(50, 50, 1.0)))
    latest.write_text(json.dumps(_payload(80, 20, 8.0)))
    return baseline, latest


class TestCliProfDiff:
    def test_diff_prints_frame_and_plan_op_tables(self, recorded_pair,
                                                  capsys):
        baseline, latest = recorded_pair
        assert cli_main(["diff", str(baseline), str(latest)]) == 0
        out = capsys.readouterr().out
        assert "self-time share by frame" in out
        assert "plan-op share of plan wall time" in out
        # the injected riser leads its table with a positive delta
        frame_lines = [line for line in out.splitlines()
                       if "hot_frame" in line]
        assert frame_lines and "+30.0pp" in frame_lines[0]
        assert any("project" in line and "+" in line
                   for line in out.splitlines())

    def test_diff_needs_no_target(self, recorded_pair):
        """diff is offline: no HOST:PORT, no server, no network."""
        baseline, latest = recorded_pair
        assert cli_main(["diff", str(baseline), str(latest)]) == 0

    def test_prof_without_target_or_diff_exits(self, capsys):
        """Reading a live profile needs an address; its absence is a
        usage error naming it."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["get", "prof"])
        assert excinfo.value.code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_diff_rejects_junk_files(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError, match="not a recorded profile"):
            cli_main(["diff", str(junk), str(junk)])


def _load_record_module():
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import record
        return record
    finally:
        sys.path.pop(0)


class TestRegressionAttribution:
    def test_failed_gate_prints_attribution_table(self, recorded_pair,
                                                  tmp_path, capsys):
        record = _load_record_module()
        bench = tmp_path / "BENCH_test.json"
        record.record(bench, {"batched_qps": 1000.0},
                      commit="aaaa", timestamp="2026-08-01T00:00:00+00:00")
        record.record(bench, {"batched_qps": 500.0},  # 50% drop
                      commit="bbbb", timestamp="2026-08-02T00:00:00+00:00")
        status = record.main(["--check-regression", str(bench),
                              "--prof-dir",
                              str(recorded_pair[0].parent)])
        assert status == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "batched_qps" in out
        # ... and the failure names its suspects
        assert "attribution (serve_profile)" in out
        assert "hot_frame" in out
        assert "project" in out

    def test_attribution_never_masks_the_failure(self, tmp_path,
                                                 capsys):
        """A missing/empty profile dir degrades to the plain failure."""
        record = _load_record_module()
        bench = tmp_path / "BENCH_test.json"
        record.record(bench, {"batched_qps": 1000.0}, commit="a",
                      timestamp="2026-08-01T00:00:00+00:00")
        record.record(bench, {"batched_qps": 500.0}, commit="b",
                      timestamp="2026-08-02T00:00:00+00:00")
        status = record.main(["--check-regression", str(bench),
                              "--prof-dir",
                              str(tmp_path / "no_such_dir")])
        assert status == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "attribution" not in out

    def test_passing_gate_prints_no_attribution(self, recorded_pair,
                                                tmp_path, capsys):
        record = _load_record_module()
        bench = tmp_path / "BENCH_test.json"
        record.record(bench, {"batched_qps": 1000.0}, commit="a",
                      timestamp="2026-08-01T00:00:00+00:00")
        record.record(bench, {"batched_qps": 990.0}, commit="b",
                      timestamp="2026-08-02T00:00:00+00:00")
        status = record.main(["--check-regression", str(bench),
                              "--prof-dir",
                              str(recorded_pair[0].parent)])
        assert status == 0
        assert "attribution" not in capsys.readouterr().out

    def test_gated_prof_metrics_have_directions(self):
        record = _load_record_module()
        assert record.METRIC_DIRECTIONS["prof_overhead_ratio"] is False
        assert record.METRIC_DIRECTIONS["plan_stage_seconds_total"] \
            is False
