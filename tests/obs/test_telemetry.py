"""Training telemetry: callback events, sinks, history timing."""

import io
import json

import numpy as np
import pytest

from repro.config import ModelConfig, TrainConfig
from repro.core import HalkModel, Trainer
from repro.kg import KnowledgeGraph
from repro.obs import (ConsoleLogger, EpochStats, JsonlTelemetry,
                       TrainerCallback)
from repro.queries import Entity, GroundedQuery, Projection, QueryWorkload

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def kg() -> KnowledgeGraph:
    rng = np.random.default_rng(1)
    triples = [(int(rng.integers(15)), int(rng.integers(2)),
                int(rng.integers(15))) for _ in range(40)]
    return KnowledgeGraph(15, 2, triples)


@pytest.fixture
def workload(kg) -> QueryWorkload:
    workload = QueryWorkload()
    for head, rel, _tail in list(kg)[:10]:
        query = Projection(rel, Entity(head))
        answers = kg.targets(head, rel)
        workload.add(GroundedQuery("1p", query, frozenset(answers),
                                   frozenset()))
    return workload


@pytest.fixture
def model(kg) -> HalkModel:
    return HalkModel(kg, ModelConfig(embedding_dim=6, hidden_dim=12, seed=0))


class Recorder(TrainerCallback):
    def __init__(self):
        self.begins = 0
        self.epochs: list[EpochStats] = []
        self.ends = 0
        self.closed = False

    def on_train_begin(self, trainer):
        self.begins += 1

    def on_epoch_end(self, trainer, stats):
        self.epochs.append(stats)

    def on_train_end(self, trainer, history):
        self.ends += 1

    def close(self):
        self.closed = True


def _config(epochs: int = 2) -> TrainConfig:
    return TrainConfig(epochs=epochs, batch_size=8, num_negatives=4)


class TestCallbackEvents:
    def test_event_sequence_and_stats(self, model, workload):
        recorder = Recorder()
        Trainer(model, workload, _config(3), callbacks=[recorder]).train()
        assert recorder.begins == 1 and recorder.ends == 1
        assert [s.epoch for s in recorder.epochs] == [1, 2, 3]
        for stats in recorder.epochs:
            assert stats.epochs == 3
            assert np.isfinite(stats.loss)
            assert stats.grad_norm > 0.0
            assert stats.seconds > 0.0
            assert stats.samples == len(workload["1p"])
            assert stats.steps >= 1
            assert stats.samples_per_sec > 0.0

    def test_operator_seconds_collected(self, model, workload):
        recorder = Recorder()
        Trainer(model, workload, _config(1), callbacks=[recorder]).train()
        operator_seconds = recorder.epochs[0].operator_seconds
        assert operator_seconds, "expected per-module timings"
        assert all(v >= 0.0 for v in operator_seconds.values())

    def test_no_callbacks_skips_collection(self, model, workload):
        trainer = Trainer(model, workload, _config(1))
        history = trainer.train()
        assert len(trainer.callbacks) == 0
        assert len(history.epoch_seconds) == 1
        assert history.epoch_seconds[0] > 0.0

    def test_history_epoch_seconds_always_recorded(self, model, workload):
        history = Trainer(model, workload, _config(3),
                          callbacks=[Recorder()]).train()
        assert len(history.epoch_seconds) == 3
        assert sum(history.epoch_seconds) <= history.seconds


class TestConsoleLogger:
    def test_prints_legacy_format(self, model, workload, capsys):
        config = TrainConfig(epochs=2, batch_size=8, num_negatives=4,
                             log_every=1)
        Trainer(model, workload, config).train()
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"[{model.name}] epoch 1/2 loss ")

    def test_log_every_filters(self, model, workload, capsys):
        config = TrainConfig(epochs=4, batch_size=8, num_negatives=4,
                             log_every=2)
        Trainer(model, workload, config).train()
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "epoch 2/4" in lines[0] and "epoch 4/4" in lines[1]

    def test_custom_stream(self, model, workload):
        stream = io.StringIO()
        Trainer(model, workload, _config(1),
                callbacks=[ConsoleLogger(1, stream=stream)]).train()
        assert "epoch 1/1 loss" in stream.getvalue()


class TestJsonlTelemetry:
    def test_event_stream(self, model, workload):
        buffer = io.StringIO()
        telemetry = JsonlTelemetry(buffer, clock=lambda: 123.0)
        Trainer(model, workload, _config(2), callbacks=[telemetry]).train()
        events = [json.loads(line) for line in
                  buffer.getvalue().strip().splitlines()]
        assert [e["event"] for e in events] == [
            "train_begin", "epoch", "epoch", "train_end"]
        begin, first_epoch, _, end = events
        assert begin["model"] == model.name
        assert begin["epochs"] == 2
        assert first_epoch["epoch"] == 1
        assert np.isfinite(first_epoch["loss"])
        assert first_epoch["grad_norm"] > 0.0
        assert end["final_loss"] == pytest.approx(events[2]["loss"])

    def test_file_sink_and_close(self, model, workload, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        telemetry = JsonlTelemetry(path)
        trainer = Trainer(model, workload, _config(1), callbacks=[telemetry])
        trainer.train()
        trainer.callbacks.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
