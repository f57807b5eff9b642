"""Tests for the configuration dataclasses."""

import dataclasses

import pytest

from repro.config import ModelConfig, TrainConfig


class TestModelConfig:
    def test_defaults_valid(self):
        config = ModelConfig()
        assert config.embedding_dim > 0
        assert 0 < config.eta < 1

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            ModelConfig(embedding_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(hidden_dim=-1)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            ModelConfig(radius=0.0)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            ModelConfig(eta=0.0)
        with pytest.raises(ValueError):
            ModelConfig(eta=1.5)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            ModelConfig(gamma=-1.0)

    def test_with_replaces_fields(self):
        config = ModelConfig().with_(embedding_dim=64)
        assert config.embedding_dim == 64
        assert config.hidden_dim == ModelConfig().hidden_dim

    def test_with_validates(self):
        with pytest.raises(ValueError):
            ModelConfig().with_(eta=2.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ModelConfig().embedding_dim = 5


class TestTrainConfig:
    def test_defaults_valid(self):
        config = TrainConfig()
        assert config.epochs > 0

    def test_rejects_bad_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_rejects_bad_negatives(self):
        with pytest.raises(ValueError):
            TrainConfig(num_negatives=0)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_embedding_lr_optional(self):
        assert TrainConfig().embedding_learning_rate is None
        assert TrainConfig(embedding_learning_rate=0.1).embedding_learning_rate == 0.1

    def test_with_replaces_fields(self):
        config = TrainConfig().with_(epochs=5)
        assert config.epochs == 5


class TestOptionBudget:
    def test_serving_option_count_is_a_deliberate_edit(self):
        """Each independently settable field doubles the configurations
        the tests and the bench must cover, so a new knob is an edit to
        this test as well — reviewed, not incidental."""
        from repro.gateway import GatewayConfig
        from repro.obs.diag import DiagConfig
        from repro.serve import ServeConfig
        assert len(dataclasses.fields(ServeConfig)) <= 12
        assert len(dataclasses.fields(DiagConfig)) <= 5
        assert len(dataclasses.fields(GatewayConfig)) <= 2

    @pytest.mark.parametrize("knob", ["max_retries", "histogram_window",
                                      "prof_hz"])
    def test_knobs_only_tests_set_are_constants(self, knob):
        """The retry budget, histogram window and profiler rate are module
        constants (``MAX_RETRIES``, ``HISTOGRAM_WINDOW``,
        ``repro.obs.prof.DEFAULT_HZ``) that tests patch, not fields."""
        from repro.serve import ServeConfig
        with pytest.raises(TypeError):
            ServeConfig(**{knob: 1})
