"""The triple stream and the streaming split writer.

``generate_kg`` is the exact stream concatenated, so the preset graphs
pin the exact mode (``test_datasets.TestPresetDigest``); here the stream
must be chunk-invariant and pick its mode by size.  The binned mode only
promises the structural invariants (valid ids, no rotation self-loops,
determinism).  The split writer must be byte-deterministic and produce
``load_splits``-compatible nested splits with full entity coverage in
train.
"""

import pathlib

import numpy as np
import pytest

from repro.kg import (EXACT_ENTITY_LIMIT, fb15k_xl_config, load_splits,
                      load_summary, stream_splits, stream_triples)
from repro.kg.datasets import GeneratorConfig, RelationSpec

pytestmark = pytest.mark.scaling


def _small_config(seed=0, n=180):
    return fb15k_xl_config(num_entities=n, seed=seed)


def _stream_all(config, **kw) -> np.ndarray:
    blocks = list(stream_triples(config, **kw))
    assert all(b.dtype == np.int64 and b.ndim == 2 and b.shape[1] == 3
               for b in blocks)
    return np.concatenate(blocks, axis=0)


# ----------------------------------------------------------------------
# exact mode
# ----------------------------------------------------------------------

def test_exact_stream_is_chunk_invariant():
    """Chunking is a memory knob, not a semantics knob."""
    config = _small_config(seed=9)
    a = _stream_all(config, chunk=7, exact=True)
    b = _stream_all(config, chunk=10_000, exact=True)
    assert np.array_equal(a, b)


def test_exact_mode_is_the_default_below_the_limit():
    config = _small_config(seed=1)
    assert config.num_entities <= EXACT_ENTITY_LIMIT
    auto = _stream_all(config, chunk=64)
    exact = _stream_all(config, chunk=64, exact=True)
    assert np.array_equal(auto, exact)


# ----------------------------------------------------------------------
# binned mode invariants
# ----------------------------------------------------------------------

def test_binned_stream_is_deterministic_and_valid():
    config = _small_config(seed=2, n=500)
    a = _stream_all(config, chunk=41, exact=False)
    b = _stream_all(config, chunk=97, exact=False)
    # determinism holds across chunk sizes too (chunking only batches
    # the per-head work; no RNG draw depends on the chunk boundary)
    assert np.array_equal(a, b)
    assert a[:, 0].min() >= 0 and a[:, 0].max() < config.num_entities
    assert a[:, 2].min() >= 0 and a[:, 2].max() < config.num_entities
    assert a[:, 1].min() >= 0 and a[:, 1].max() < len(config.relations)
    rotations = {i for i, s in enumerate(config.relations)
                 if s.kind == "rotation"}
    rot_rows = np.isin(a[:, 1], sorted(rotations))
    assert not np.any(a[rot_rows, 0] == a[rot_rows, 2]), \
        "rotation relations must not emit self-loops"


def test_inverse_relations_mirror_their_source():
    config = GeneratorConfig(
        name="inv", num_entities=120,
        relations=(RelationSpec("rotation", fan_out=2.0, noise=0.1),
                   RelationSpec("inverse", inverse_of=0)))
    streamed = _stream_all(config, chunk=17, exact=True)
    fwd = streamed[streamed[:, 1] == 0]
    inv = streamed[streamed[:, 1] == 1]
    assert np.array_equal(inv[:, [2, 0]], fwd[:, [0, 2]])


# ----------------------------------------------------------------------
# streaming splits
# ----------------------------------------------------------------------

def test_stream_splits_deterministic_bytes(tmp_path: pathlib.Path):
    config = _small_config(seed=6)
    one, two = tmp_path / "one", tmp_path / "two"
    s1 = stream_splits(config, one, seed=3, chunk=23)
    s2 = stream_splits(config, two, seed=3, chunk=77)
    for name in ("entities.txt", "relations.txt", "train.tsv",
                 "valid.tsv", "test.tsv", "meta.json"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), \
            f"{name} differs between identical-seed runs"
    assert s1.counts == s2.counts


def test_stream_splits_protocol(tmp_path: pathlib.Path):
    """Nesting, entity coverage, fractions, and load_splits round-trip."""
    config = _small_config(seed=8)
    summary = stream_splits(config, tmp_path / "xl", seed=1)
    splits = load_splits(tmp_path / "xl", name="xl")

    assert splits.train.is_subgraph_of(splits.valid)
    assert splits.valid.is_subgraph_of(splits.test)
    assert len(splits.test.triples) == summary.counts["test"]
    assert len(splits.train.triples) == summary.counts["train"]

    # the full graph is exactly the streamed graph
    streamed = _stream_all(config, exact=True)
    assert np.array_equal(
        np.asarray(sorted(splits.test.triples), dtype=np.int64),
        np.unique(streamed, axis=0))

    # every entity mentioned anywhere has an observed fact in train
    covered = set()
    for head, _, tail in splits.train.triples:
        covered.update((head, tail))
    mentioned = set()
    for head, _, tail in splits.test.triples:
        mentioned.update((head, tail))
    assert mentioned <= covered

    # fractions hold to within sampling noise (the forced training core
    # only ever pushes triples *into* train, never out)
    assert (summary.counts["train"] <= summary.counts["valid"]
            <= summary.counts["test"])
    assert summary.counts["train"] >= 0.75 * summary.counts["test"]
    assert summary.counts["valid"] >= 0.85 * summary.counts["test"]

    reloaded = load_summary(tmp_path / "xl")
    assert reloaded.counts == summary.counts
    assert reloaded.num_entities == config.num_entities


def test_stream_splits_validates_fractions(tmp_path: pathlib.Path):
    config = _small_config()
    with pytest.raises(ValueError):
        stream_splits(config, tmp_path / "bad", train_fraction=0.95,
                      valid_fraction=0.9)
