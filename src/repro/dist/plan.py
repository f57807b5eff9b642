"""Entity shard plans published through ``multiprocessing.shared_memory``.

The entity embedding table is the one large array every shard worker
needs.  :class:`EntityShardPlan` partitions its rows into K *contiguous*
shards and publishes each shard's ``[start, stop)`` row block as its own
named shared-memory segment; a worker attaches its shard's segment and
gets a zero-copy numpy view of exactly its rows.  Contiguity is what
keeps the top-k merge exact: shard-local positions translate to global
entity ids by a constant offset (see DESIGN.md §7).

Beside every table segment the plan can publish a **companion** segment
of the same rows: the scorer's ``prepare``-d table (for the arc scorer,
the float32 half-angles its ranking filter reads), so that no worker
derives it per request.

Publishing is write-through: :meth:`EntityShardPlan.update` rewrites the
segments in place — table rows, then the companion rows derived from
them — so after a hot model reload every attached worker sees the new
weights on its next score call without any message or copy.

Cleanup is refcounted.  The creating process owns the segment and
unlinks it when the last :class:`SharedArray` handle closes; attaching
processes only close their mapping.  On CPython < 3.13 an *attaching*
``SharedMemory`` wrongly registers with the ``resource_tracker`` (it
would unlink the segment when the worker exits — bpo-38119), so attach
goes through :func:`_attach_untracked`.
"""

from __future__ import annotations

import secrets
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["dist_available", "SharedArray", "SharedArraySpec",
           "EntityShardPlan", "ShardRange", "partition_rows"]

_AVAILABLE: bool | None = None


def dist_available() -> bool:
    """Whether POSIX/Windows shared memory actually works here.

    Import success is not enough: locked-down containers may mount
    ``/dev/shm`` read-only or not at all.  Probes once per process.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory
            probe = shared_memory.SharedMemory(create=True, size=8)
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


def _attach_untracked(name: str):
    """Attach to an existing segment without resource-tracker ownership.

    Suppresses the ``resource_tracker.register`` call during attach
    rather than unregistering afterwards: spawned workers share the
    parent's tracker process, so an *unregister* message from a worker
    would delete the owner's registration and the owner's later unlink
    would crash the tracker (bpo-38119).
    """
    from multiprocessing import shared_memory
    try:  # pragma: no cover - version dependent
        from multiprocessing import resource_tracker
        original = resource_tracker.register

        def _skip_shared_memory(res_name, rtype):
            if rtype != "shared_memory":
                original(res_name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except ImportError:
        return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable handle to a published array (ships to workers)."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    def attach(self) -> "SharedArray":
        """Map the segment in this process (read/write view, no copy)."""
        shm = _attach_untracked(self.name)
        return SharedArray(shm, self.shape, self.dtype, owner=False)


class SharedArray:
    """A numpy array backed by a named shared-memory segment.

    The creating side (``owner=True``) unlinks the segment on
    :meth:`close`; attached sides only unmap.  ``ndarray`` is a zero-copy
    view of the segment (slicing it hands out views too).
    """

    #: rows copied per :meth:`fill` step — bounds the transient working
    #: set to one chunk regardless of table size
    FILL_CHUNK_ROWS = 65_536

    def __init__(self, shm, shape, dtype, owner: bool):
        self._shm = shm
        self._owner = owner
        self._closed = False
        self.spec = SharedArraySpec(shm.name, tuple(int(s) for s in shape),
                                    str(dtype))
        self.ndarray = np.ndarray(self.spec.shape, dtype=np.dtype(dtype),
                                  buffer=shm.buf)

    @classmethod
    def create_empty(cls, shape, dtype, name: str | None = None
                     ) -> "SharedArray":
        """Allocate a zero-filled segment without any source copy.

        This is the xl-scale entry point: allocate first, then
        :meth:`fill` chunk by chunk from an ndarray-like source (a plain
        array, or an ``np.memmap`` whose pages are only read as each
        chunk is copied), so peak RSS never holds source + segment.
        """
        from multiprocessing import shared_memory
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        name = name or f"repro-{secrets.token_hex(6)}"
        shm = shared_memory.SharedMemory(create=True, name=name,
                                         size=max(nbytes, 1))
        return cls(shm, shape, dtype, owner=True)

    @classmethod
    def create(cls, array: np.ndarray, name: str | None = None
               ) -> "SharedArray":
        """Publish a copy of ``array`` as a new shared segment.

        Copies straight into the segment chunk by chunk — exactly one
        copy of the data is ever made, with no intermediate
        ``ascontiguousarray`` materialisation for non-contiguous (or
        memory-mapped) sources.
        """
        array = np.asarray(array)
        out = cls.create_empty(array.shape, array.dtype, name=name)
        out.fill(array)
        return out

    def fill(self, source, chunk_rows: int | None = None) -> None:
        """Copy ``source`` into the segment in bounded chunks.

        ``source`` is any ndarray-like sliceable along axis 0 (including
        ``np.memmap``) with the segment's row count.  Only
        ``chunk_rows`` rows are in flight at a time.
        """
        target = self.ndarray
        if len(target) != len(source):
            raise ValueError(f"source has {len(source)} rows, "
                             f"target expects {len(target)}")
        chunk = chunk_rows or self.FILL_CHUNK_ROWS
        for start in range(0, len(target), max(chunk, 1)):
            stop = min(start + chunk, len(target))
            target[start:stop] = source[start:stop]

    def close(self) -> None:
        """Unmap; the owner additionally destroys the segment."""
        if self._closed:
            return
        self._closed = True
        # drop the buffer view before closing the mapping; if a caller
        # still holds a slice, leave the mapping to process exit rather
        # than crash (the segment itself is still unlinked below)
        self.ndarray = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept a view
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class ShardRange:
    """One contiguous row block ``[start, stop)`` of the entity table."""

    index: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


def partition_rows(num_rows: int, num_shards: int) -> list[ShardRange]:
    """Split ``num_rows`` into ``num_shards`` balanced contiguous ranges.

    The first ``num_rows % num_shards`` shards get one extra row, so
    shard sizes differ by at most one.  Asking for more shards than
    rows clamps to one row per shard (with a warning) rather than
    raising — ``--shards 8`` on a tiny graph should serve, not crash;
    callers read the effective count from ``len()`` of the result.
    """
    if num_rows <= 0:
        raise ValueError("num_rows must be positive")
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    if num_rows < num_shards:
        warnings.warn(f"requested {num_shards} shards for {num_rows} rows; "
                      f"clamping to {num_rows} single-row shards",
                      RuntimeWarning, stacklevel=2)
        num_shards = num_rows
    base, extra = divmod(num_rows, num_shards)
    ranges = []
    start = 0
    for index in range(num_shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append(ShardRange(index, start, stop))
        start = stop
    return ranges


class EntityShardPlan:
    """K contiguous shards of an entity table, published once.

    One segment *per shard*, each allocated empty and filled
    chunk-by-chunk from ``points``: the parent never holds source +
    published copy simultaneously beyond one fill chunk, and a worker
    maps only its own ``len(range) × d`` rows, so it cannot touch
    another shard's.  ``points`` may be an ``np.memmap``: its pages are
    read on demand during the fill and never all resident.

    With ``prepare`` every segment gets a **companion** segment of the
    same rows holding ``prepare(rows)`` — the scorer's filter table (see
    :meth:`repro.dist.scorer.ShardScorer.prepare`), published so that no
    worker derives it per request.  The plan is its only writer:
    construction and :meth:`update` fill a segment and then its
    companion from it, so the two never describe different weights to a
    reader the caller has quiesced.

    Parameters
    ----------
    points:
        ``(N, d)`` entity representation (e.g. wrapped circle angles);
        any ndarray-like sliceable along axis 0.
    num_shards:
        Number of contiguous row blocks (clamped to N, see
        :func:`partition_rows`).
    prepare:
        A scorer's row-wise ``prepare(rows, out=None)``; None, or a None
        result, publishes no companion.
    """

    def __init__(self, points, num_shards: int,
                 chunk_rows: int | None = None, prepare=None):
        if getattr(points, "ndim", None) != 2:
            points = np.asarray(points)
        if points.ndim != 2:
            raise ValueError("points must be (N, d)")
        self.num_entities = int(points.shape[0])
        self.dim = int(points.shape[1])
        self._chunk_rows = chunk_rows or SharedArray.FILL_CHUNK_ROWS
        self._prepare = prepare
        self.ranges = partition_rows(self.num_entities, num_shards)
        # zero rows are enough to learn the companion's dtype and width
        probe = prepare(np.asarray(points[:0])) if prepare else None
        self._segments: list[SharedArray] = []
        self._companions: list[SharedArray] = []
        try:
            for shard in self.ranges:
                self._segments.append(SharedArray.create_empty(
                    (len(shard), self.dim), points.dtype))
                if probe is not None:
                    self._companions.append(SharedArray.create_empty(
                        (len(shard),) + probe.shape[1:], probe.dtype))
            self._fill(points)
        except BaseException:
            self.close()  # a half-built plan must not leak segments
            raise

    @property
    def num_shards(self) -> int:
        return len(self.ranges)

    def _fill(self, points) -> None:
        """Write ``points`` through every segment, then its companion
        from the rows just written — one bounded chunk in flight."""
        chunk = self._chunk_rows
        for shard, segment in zip(self.ranges, self._segments):
            segment.fill(points[shard.start:shard.stop], chunk_rows=chunk)
            if self._companions:
                source = segment.ndarray
                target = self._companions[shard.index].ndarray
                for s in range(0, len(source), chunk):
                    self._prepare(source[s:s + chunk],
                                  out=target[s:s + chunk])

    def shard_spec(self, index: int, prepared: bool = False
                   ) -> tuple[SharedArraySpec | None, ShardRange]:
        """What a worker needs to map its block: (segment, row range).

        The segment holds exactly the range's rows.  ``prepared=True``
        names the companion segment instead (None when the plan
        publishes none).
        """
        segments = self._companions if prepared else self._segments
        spec = segments[index].spec if segments else None
        return spec, self.ranges[index]

    def rows(self, shard: ShardRange, prepared: bool = False
             ) -> np.ndarray | None:
        """Zero-copy view of a shard's rows in the parent process
        (``prepared=True``: of its companion rows, or None)."""
        segments = self._companions if prepared else self._segments
        return segments[shard.index].ndarray if segments else None

    def update(self, points) -> None:
        """Write-through refresh after the model's weights changed.

        Attached workers observe the new values — table and companion —
        immediately; callers must quiesce in-flight scoring first (the
        serving runtime does this under its model write lock).  Chunked
        either way, so a refresh never re-materialises the table.
        """
        if getattr(points, "ndim", None) != 2:
            points = np.asarray(points)
        if points.shape != (self.num_entities, self.dim):
            raise ValueError(f"shape changed: published "
                             f"{(self.num_entities, self.dim)}, "
                             f"got {tuple(points.shape)}")
        self._fill(points)

    def memory_inventory(self) -> dict:
        """Shared-memory accounting for ``/debug/mem``.

        Per-shard published bytes — the shard's rows of the table *and*
        of the companion, the latter also on its own as
        ``prepared_bytes`` — plus the plan totals, which sum to what
        ``/dev/shm`` holds.
        """
        # every segment holds at least one row (partition_rows)
        table = int(self._segments[0].ndarray[0].nbytes)
        prepared = int(self._companions[0].ndarray[0].nbytes) \
            if self._companions else 0
        shards = [{"shard": rng.index, "rows": len(rng),
                   "bytes": len(rng) * (table + prepared),
                   "prepared_bytes": len(rng) * prepared}
                  for rng in self.ranges]
        return {"num_entities": self.num_entities, "dim": self.dim,
                "total_bytes": self.num_entities * (table + prepared),
                "prepared_bytes": self.num_entities * prepared,
                "shards": shards}

    def close(self) -> None:
        """Destroy the published segments (workers must detach first)."""
        for segment in self._segments + self._companions:
            segment.close()

    def __enter__(self) -> "EntityShardPlan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
