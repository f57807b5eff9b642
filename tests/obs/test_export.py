"""Exporters: Chrome trace events, JSONL writer, ASCII span tree."""

import io
import json

import pytest

from repro import obs

pytestmark = pytest.mark.obs


@pytest.fixture
def spans():
    with obs.enabled():
        tracer = obs.Tracer()
        with tracer.span("request", structure="3p"):
            with tracer.span("embed"):
                pass
            with tracer.span("rank"):
                pass
        return tracer.finished()


class TestChromeTrace:
    def test_events_are_valid(self, spans):
        events = obs.chrome_trace_events(spans)
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 3
        assert len(meta) == 2  # one thread track + its process label
        import os
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["pid"] == os.getpid() and event["tid"] >= 1
            assert "span_id" in event["args"]
        names = {e["name"] for e in complete}
        assert names == {"request", "embed", "rank"}

    def test_timestamps_relative_to_origin(self, spans):
        events = obs.chrome_trace_events(spans)
        assert min(e["ts"] for e in events if e["ph"] == "X") == 0.0

    def test_attrs_become_args(self, spans):
        events = obs.chrome_trace_events(spans)
        request = next(e for e in events if e["name"] == "request")
        assert request["args"]["structure"] == "3p"

    def test_write_file_roundtrips(self, spans, tmp_path):
        path = tmp_path / "trace.json"
        count = obs.write_chrome_trace(path, spans)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count == 5
        assert payload["displayTimeUnit"] == "ms"

    def test_empty_spans(self, tmp_path):
        assert obs.chrome_trace_events([]) == []
        assert obs.write_chrome_trace(tmp_path / "t.json", []) == 0


class TestJsonlWriter:
    def test_writes_one_json_per_line(self):
        buffer = io.StringIO()
        writer = obs.JsonlWriter(buffer)
        writer.write({"event": "a", "value": 1})
        writer.write({"event": "b", "nested": {"x": [1, 2]}})
        lines = buffer.getvalue().strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["a", "b"]
        assert writer.count == 2

    def test_file_path_and_context_manager(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.JsonlWriter(path) as writer:
            writer.write({"k": "v"})
        assert json.loads(path.read_text())["k"] == "v"

    def test_non_jsonable_values_coerced(self):
        buffer = io.StringIO()
        obs.JsonlWriter(buffer).write({"obj": object()})
        assert "object object" in json.loads(buffer.getvalue())["obj"]


class TestSpanTree:
    def test_tree_renders_nesting(self, spans):
        text = obs.format_span_tree(spans)
        lines = text.splitlines()
        assert lines[0].startswith("request")
        assert lines[1].startswith("  embed")
        assert lines[2].startswith("  rank")
        assert "ms" in lines[0]
        assert "structure=3p" in lines[0]

    def test_orphans_promoted_to_roots(self):
        orphan = obs.Span("child", 0.0, 0.001, span_id=2, parent_id=1)
        text = obs.format_span_tree([orphan])
        assert text.startswith("child")  # its parent is not in the set

    def test_span_to_dict(self, spans):
        record = obs.span_to_dict(spans[-1])
        assert record["name"] == "request"
        assert record["duration_ms"] >= 0.0
        assert record["attrs"] == {"structure": "3p"}
