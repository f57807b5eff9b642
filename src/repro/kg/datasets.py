"""Synthetic knowledge-graph benchmarks and split protocol.

The paper evaluates on FB15k, FB15k-237 and NELL995.  Those dumps are not
available in this offline environment, so this module generates *structured
synthetic analogues* with the same relative characteristics:

* ``fb15k_mini`` — densest, includes explicit inverse-relation pairs (the
  redundancy FB15k is famous for),
* ``fb237_mini`` — the same generative recipe with inverse relations
  removed and lower density (FB15k-237 was derived from FB15k exactly by
  deleting near-inverse/duplicate relations),
* ``nell_mini`` — sparser, more relations, more entities.

The generator is a latent-rotation model: every entity carries a latent
angle vector; each base relation is (approximately) a rotation in latent
space plus noise, with the fan-out drawn from a heavy-tailed distribution.
Community (hub) relations and hierarchy (tree) relations add the
non-functional structure real KGs have.  Because relations compose as
rotations, multi-hop queries have coherent, learnable answer sets — which
is precisely the property the paper's evaluation exploits.

The generator is one stream, :func:`stream_triples`: ``(m, 3)`` blocks,
one relation at a time, from one RNG stream, so peak memory is the
latent table plus one chunk.  :func:`generate_kg` concatenates it into a
:class:`KnowledgeGraph`; :mod:`repro.kg.xl` writes it to disk as nested
splits.  Rotation tails are the latent-nearest entities, found by an
exact O(n^2) search up to :data:`EXACT_ENTITY_LIMIT` entities and by a
binned near-linear search above it.

The split protocol follows the paper (§IV-A): three graphs with
``G_train ⊆ G_valid ⊆ G_test``, the supersets adding unseen (missing)
edges.  Every entity is anchored in the training graph so embeddings exist
for the full vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .graph import KnowledgeGraph, Triple

__all__ = [
    "RelationSpec", "GeneratorConfig", "DatasetSplits",
    "EXACT_ENTITY_LIMIT", "stream_triples", "generate_kg", "make_splits",
    "fb15k_mini", "fb237_mini", "nell_mini",
    "DATASET_BUILDERS", "load_dataset",
]


@dataclass(frozen=True)
class RelationSpec:
    """Recipe for a single synthetic relation.

    Parameters
    ----------
    kind:
        ``"rotation"`` (near-functional latent rotation), ``"community"``
        (members point to hub entities), ``"hierarchy"`` (tree parents), or
        ``"inverse"`` (mirror of an earlier relation).
    fan_out:
        Mean out-degree for rotation relations.
    noise:
        Latent noise scale (higher = less compositional).
    inverse_of:
        Index of the mirrored relation (``kind="inverse"`` only).
    """

    kind: str = "rotation"
    fan_out: float = 2.0
    noise: float = 0.15
    inverse_of: int | None = None

    def __post_init__(self):
        if self.kind not in {"rotation", "community", "hierarchy", "inverse"}:
            raise ValueError(f"unknown relation kind {self.kind!r}")
        if self.kind == "inverse" and self.inverse_of is None:
            raise ValueError("inverse relations need inverse_of")


@dataclass(frozen=True)
class GeneratorConfig:
    """Full recipe for a synthetic KG."""

    name: str
    num_entities: int
    relations: tuple[RelationSpec, ...]
    latent_dim: int = 2
    num_communities: int = 8
    seed: int = 0

    @property
    def relation_names(self) -> list[str]:
        """``{kind}_{id}`` for every relation, in id order."""
        return [f"{spec.kind}_{i}" for i, spec in enumerate(self.relations)]


@dataclass
class DatasetSplits:
    """The three nested graphs used for training/validation/test."""

    name: str
    train: KnowledgeGraph
    valid: KnowledgeGraph
    test: KnowledgeGraph
    config: GeneratorConfig | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.train.is_subgraph_of(self.valid):
            raise ValueError("train graph must be a subgraph of valid graph")
        if not self.valid.is_subgraph_of(self.test):
            raise ValueError("valid graph must be a subgraph of test graph")


# ----------------------------------------------------------------------
# the generator: one stream of (m, 3) blocks, relation by relation
# ----------------------------------------------------------------------
#: largest graph whose rotation tails are found by the exact O(n^2)
#: search; above it the binned near-linear search is used
EXACT_ENTITY_LIMIT = 20_000

#: head rows processed per chunk of the rotation/community streams
DEFAULT_CHUNK = 4096

#: binned search: target entities per angle bucket and the cap on how
#: many nearest candidates are ranked per head (also clamps the fan-out)
_BUCKET_TARGET = 64
_MAX_FAN = 64

TWO_PI = 2.0 * np.pi


def _chunks(n: int, chunk: int) -> Iterator[tuple[int, int]]:
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


def _angular_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-over-dims angular distance, one row per entry of ``a``."""
    diff = np.abs(a[:, None, :] - b[None, :, :])
    diff = np.minimum(diff, TWO_PI - diff)
    return diff.max(axis=-1)


def _rotation_stream_exact(rel_id: int, rotated: np.ndarray,
                           latents: np.ndarray, fans: np.ndarray,
                           heads: np.ndarray, chunk: int):
    """Each head's ``fan`` latent-nearest tails among all entities.

    Per chunk of heads the full distance row against every entity is
    computed — O(n·chunk) memory, O(n^2) total work — and each head's
    tails are the ``argpartition`` of its row, in that order.
    """
    n = latents.shape[0]
    for s, e in _chunks(n, chunk):
        head_ids = s + np.flatnonzero(heads[s:e])
        if head_ids.size == 0:
            continue
        distance = _angular_rows(rotated[head_ids], latents)
        distance[np.arange(head_ids.size), head_ids] = np.inf  # no loops
        rows: list[np.ndarray] = []
        for local, head in enumerate(head_ids):
            fan = int(fans[head])
            tails = np.argpartition(distance[local], fan)[:fan]
            block = np.empty((fan, 3), dtype=np.int64)
            block[:, 0] = head
            block[:, 1] = rel_id
            block[:, 2] = tails
            rows.append(block)
        if rows:
            yield np.concatenate(rows, axis=0)


def _bucket_table(latents: np.ndarray) -> np.ndarray:
    """Bucket entities by first latent angle into a padded table.

    The table has one row per bucket, entity ids ascending, -1 padding —
    fixed width so candidate gathering stays vectorised.
    """
    n = latents.shape[0]
    num_buckets = max(4, n // _BUCKET_TARGET)
    buckets = np.minimum((latents[:, 0] / TWO_PI * num_buckets).astype(np.int64),
                         num_buckets - 1)
    order = np.argsort(buckets, kind="stable")
    counts = np.bincount(buckets, minlength=num_buckets)
    width = int(counts.max())
    table = np.full((num_buckets, width), -1, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    for b in range(num_buckets):
        members = order[starts[b]:starts[b] + counts[b]]
        table[b, :members.size] = members
    return table


def _rotation_stream_binned(rel_id: int, rotated: np.ndarray,
                            latents: np.ndarray, fans: np.ndarray,
                            heads: np.ndarray, chunk: int):
    """Near-linear tail search: rank only the 3 buckets around the
    rotated position.  Fan-outs are clamped to :data:`_MAX_FAN` (the
    heavy geometric tail would defeat the candidate cap anyway)."""
    n = latents.shape[0]
    table = _bucket_table(latents)
    num_buckets, width = table.shape
    fans = np.minimum(fans, _MAX_FAN)
    for s, e in _chunks(n, chunk):
        head_ids = s + np.flatnonzero(heads[s:e])
        if head_ids.size == 0:
            continue
        rot = rotated[head_ids]
        centre = np.minimum((rot[:, 0] / TWO_PI * num_buckets).astype(np.int64),
                            num_buckets - 1)
        neighbours = np.stack([(centre - 1) % num_buckets, centre,
                               (centre + 1) % num_buckets], axis=1)
        cand = table[neighbours].reshape(head_ids.size, 3 * width)
        distance = np.abs(rot[:, None, :] - latents[cand])
        distance = np.minimum(distance, TWO_PI - distance).max(axis=-1)
        distance[cand < 0] = np.inf                 # padding
        distance[cand == head_ids[:, None]] = np.inf  # no self loops
        take = min(_MAX_FAN, cand.shape[1])
        part = np.argpartition(distance, take - 1, axis=-1)[:, :take]
        vals = np.take_along_axis(distance, part, axis=-1)
        order = np.argsort(vals, axis=-1, kind="stable")
        nearest = np.take_along_axis(part, order, axis=-1)
        finite = np.take_along_axis(vals, order, axis=-1) < np.inf
        want = np.arange(take)[None, :] < fans[head_ids][:, None]
        rows, cols = np.nonzero(want & finite)
        if rows.size == 0:
            continue
        block = np.empty((rows.size, 3), dtype=np.int64)
        block[:, 0] = head_ids[rows]
        block[:, 1] = rel_id
        block[:, 2] = cand[rows, nearest[rows, cols]]
        yield block


def _rotation_stream(rel_id: int, spec: RelationSpec, latents: np.ndarray,
                     rng: np.random.Generator, chunk: int, exact: bool):
    """Connect each head to its nearest tails under a latent rotation."""
    n = latents.shape[0]
    offset = rng.uniform(0, TWO_PI, size=latents.shape[1])
    rotated = np.mod(latents + offset
                     + rng.normal(0, spec.noise, size=latents.shape), TWO_PI)
    # Heavy-tailed fan-out: most heads have ~fan_out tails, a few are hubs.
    fans = np.minimum(rng.geometric(1.0 / spec.fan_out, size=n), n - 1)
    # Only a subset of entities participates as heads of any one relation,
    # mirroring the typed domains of real KGs.
    heads = rng.random(n) < 0.7
    stream = _rotation_stream_exact if exact else _rotation_stream_binned
    yield from stream(rel_id, rotated, latents, fans, heads, chunk)


def _community_stream(rel_id: int, latents: np.ndarray, num_communities: int,
                      rng: np.random.Generator, chunk: int):
    """Members point at their community's hub entities (one-to-few)."""
    n = latents.shape[0]
    communities = (latents[:, 0] / TWO_PI * num_communities).astype(int)
    communities = np.clip(communities, 0, num_communities - 1)
    hub_table = np.full((num_communities, 2), -1, dtype=np.int64)
    for c in range(num_communities):
        members = np.flatnonzero(communities == c)
        if members.size == 0:
            continue
        hubs = rng.choice(members, size=min(2, members.size), replace=False)
        hub_table[c, :hubs.size] = hubs
    for s, e in _chunks(n, chunk):
        hubs = hub_table[communities[s:e]]            # (m, 2)
        entities = np.arange(s, e, dtype=np.int64)
        keep = (hubs >= 0) & (hubs != entities[:, None])
        rows, cols = np.nonzero(keep)                 # entity-major order
        if rows.size == 0:
            continue
        block = np.empty((rows.size, 3), dtype=np.int64)
        block[:, 0] = entities[rows]
        block[:, 1] = rel_id
        block[:, 2] = hubs[rows, cols]
        yield block


def _hierarchy_stream(rel_id: int, n: int, rng: np.random.Generator,
                      chunk: int):
    """A random forest of parent links over a shuffled entity order.

    The draw sequence is inherently sequential (each parent index is
    bounded by the position), so this is a plain loop with chunked
    emission — O(n) scalar draws, a few seconds at a million entities.
    """
    order = rng.permutation(n)
    pending: list[tuple[int, int, int]] = []
    for position in range(1, n):
        if rng.random() < 0.6:  # forest, not a single tree
            parent_pos = rng.integers(0, position)
            pending.append((int(order[position]), rel_id,
                            int(order[parent_pos])))
            if len(pending) >= chunk:
                yield np.asarray(pending, dtype=np.int64)
                pending = []
    if pending:
        yield np.asarray(pending, dtype=np.int64)


def stream_triples(config: GeneratorConfig, chunk: int = DEFAULT_CHUNK,
                   exact: bool | None = None) -> Iterator[np.ndarray]:
    """Yield the complete graph of ``config`` as ``(m, 3)`` int64 blocks.

    Relations are emitted in ``config.relations`` order from one RNG
    stream.  ``exact`` picks the rotation tail search; by default it is
    exact at or below :data:`EXACT_ENTITY_LIMIT` entities and binned
    above.  ``chunk`` changes memory, never results.  Only triples of
    relations some later relation mirrors are buffered; everything else
    is emitted and dropped.
    """
    if exact is None:
        exact = config.num_entities <= EXACT_ENTITY_LIMIT
    rng = np.random.default_rng(config.seed)
    latents = rng.uniform(0, TWO_PI,
                          size=(config.num_entities, config.latent_dim))
    mirrored_ids = {spec.inverse_of for spec in config.relations
                    if spec.kind == "inverse"}
    buffers: dict[int, list[np.ndarray]] = {i: [] for i in mirrored_ids}

    def emit(rel_id, blocks):
        for block in blocks:
            if rel_id in buffers:
                buffers[rel_id].append(block)
            yield block

    for rel_id, spec in enumerate(config.relations):
        if spec.kind == "rotation":
            blocks = _rotation_stream(rel_id, spec, latents, rng, chunk,
                                      exact)
        elif spec.kind == "community":
            blocks = _community_stream(rel_id, latents,
                                       config.num_communities, rng, chunk)
        elif spec.kind == "hierarchy":
            blocks = _hierarchy_stream(rel_id, config.num_entities, rng,
                                       chunk)
        else:  # "inverse" — RelationSpec validates kinds
            def mirror(rel_id=rel_id, source=spec.inverse_of):
                for block in buffers[source]:
                    out = np.empty_like(block)
                    out[:, 0] = block[:, 2]
                    out[:, 1] = rel_id
                    out[:, 2] = block[:, 0]
                    yield out
            blocks = mirror()
        yield from emit(rel_id, blocks)


def generate_kg(config: GeneratorConfig) -> KnowledgeGraph:
    """Generate the *complete* (test) graph for ``config``."""
    triples = (row for block in stream_triples(config, exact=True)
               for row in block.tolist())
    return KnowledgeGraph(config.num_entities, len(config.relations), triples,
                          relation_names=config.relation_names)


def make_splits(full: KnowledgeGraph, name: str = "synthetic",
                train_fraction: float = 0.8, valid_fraction: float = 0.9,
                seed: int = 0,
                config: GeneratorConfig | None = None) -> DatasetSplits:
    """Split a complete graph into nested train/valid/test graphs.

    ``test`` is the full graph; ``valid`` keeps ``valid_fraction`` of the
    triples; ``train`` keeps ``train_fraction``.  A spanning core (one
    covering triple per entity where possible) is always kept in train so
    that every entity has at least one observed fact.
    """
    if not 0 < train_fraction <= valid_fraction <= 1.0:
        raise ValueError("need 0 < train_fraction <= valid_fraction <= 1")
    rng = np.random.default_rng(seed)
    all_triples = sorted(full.triples)
    rng.shuffle(all_triples)

    covered: set[int] = set()
    core: list[Triple] = []
    rest: list[Triple] = []
    for triple in all_triples:
        head, _, tail = triple
        if head not in covered or tail not in covered:
            core.append(triple)
            covered.add(head)
            covered.add(tail)
        else:
            rest.append(triple)

    n_total = len(all_triples)
    n_train = max(len(core), int(round(train_fraction * n_total)))
    n_valid = max(n_train, int(round(valid_fraction * n_total)))
    train_triples = core + rest[:n_train - len(core)]
    valid_triples = train_triples + rest[n_train - len(core):n_valid - len(core)]

    train = KnowledgeGraph(full.num_entities, full.num_relations, train_triples,
                           full.entity_names, full.relation_names)
    valid = KnowledgeGraph(full.num_entities, full.num_relations, valid_triples,
                           full.entity_names, full.relation_names)
    return DatasetSplits(name=name, train=train, valid=valid, test=full,
                         config=config)


def _preset(name: str, num_entities: int, relations: tuple[RelationSpec, ...],
            seed: int, scale: float) -> DatasetSplits:
    config = GeneratorConfig(name=name,
                             num_entities=max(24, int(num_entities * scale)),
                             relations=relations, seed=seed)
    full = generate_kg(config)
    return make_splits(full, name=name, seed=seed, config=config)


def fb15k_mini(scale: float = 1.0, seed: int = 0) -> DatasetSplits:
    """FB15k analogue: dense, redundant, with explicit inverse relations."""
    base = tuple(RelationSpec("rotation", fan_out=2.5, noise=0.10)
                 for _ in range(8))
    extras = (RelationSpec("community"), RelationSpec("hierarchy"))
    inverses = tuple(RelationSpec("inverse", inverse_of=i) for i in range(4))
    return _preset("FB15k-mini", 220, base + extras + inverses, seed, scale)


def fb237_mini(scale: float = 1.0, seed: int = 0) -> DatasetSplits:
    """FB15k-237 analogue: inverse relations removed, lower density."""
    base = tuple(RelationSpec("rotation", fan_out=1.8, noise=0.15)
                 for _ in range(8))
    extras = (RelationSpec("community"), RelationSpec("hierarchy"))
    return _preset("FB237-mini", 220, base + extras, seed + 1, scale)


def nell_mini(scale: float = 1.0, seed: int = 0) -> DatasetSplits:
    """NELL995 analogue: sparser, more relations, more entities."""
    base = tuple(RelationSpec("rotation", fan_out=1.5, noise=0.12)
                 for _ in range(12))
    extras = (RelationSpec("community"), RelationSpec("hierarchy"),
              RelationSpec("hierarchy"))
    return _preset("NELL-mini", 300, base + extras, seed + 2, scale)


DATASET_BUILDERS = {
    "FB15k": fb15k_mini,
    "FB237": fb237_mini,
    "NELL": nell_mini,
}


def load_dataset(name: str, scale: float = 1.0, seed: int = 0) -> DatasetSplits:
    """Load one of the three benchmark analogues by paper name."""
    if name not in DATASET_BUILDERS:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(DATASET_BUILDERS)}")
    return DATASET_BUILDERS[name](scale=scale, seed=seed)
