"""Shared-memory limb-array transfer for the process-pool engine.

Workers and the coordinating process exchange ``(batch, n, 2)`` uint64
limb arrays through POSIX shared memory (:mod:`multiprocessing.shared_memory`)
instead of pickling them through pipes: a task message carries only a
segment *name* plus shape/row metadata, and both sides map the same
pages. For the batched NTT workloads this is the difference between
copying megabytes per shard and copying nothing.

Segment lifecycle: the coordinating process creates segments with a
recognizable ``repro-par-<pid>-...`` name, hands names to workers, and
unlinks each segment as soon as its batch completes. Every created
segment is also tracked in a module-level registry drained by an
``atexit`` hook, so an interpreter that exits mid-batch (or a user who
never calls :meth:`~repro.par.executor.ParallelExecutor.close`) still
leaves ``/dev/shm`` clean.

Batch staging goes through an :class:`ArenaPool` instead of raw
``create_segment``/``release_segment`` pairs: the pool leases
size-classed segments for the life of an executor and recycles them
across batches, so steady-state traffic performs **zero** shm
create/unlink syscalls. Arena-held segments are still registered in the
module registry (the ``atexit`` hook reclaims them) but are excluded
from :func:`created_segments` — they are pooled capacity, not leaks.
"""

from __future__ import annotations

import atexit
import itertools
import os
import secrets
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import ParallelExecutionError
from repro.fast.limbs import LIMB_DTYPE
from repro.obs.hooks import count, set_gauge

#: Name prefix of every segment this layer creates (cleanup tests and
#: operators grep ``/dev/shm`` for it).
SEGMENT_PREFIX = "repro-par"

#: Smallest arena size class; sub-page leases all share one class.
ARENA_MIN_BYTES = 4096

_COUNTER = itertools.count()

#: Segments created (not merely attached) by this process, by name.
_CREATED: Dict[str, shared_memory.SharedMemory] = {}

#: Names in ``_CREATED`` that are held by an :class:`ArenaPool` (pooled
#: capacity rather than per-batch allocations; excluded from the
#: ``created_segments`` leak count).
_ARENA_OWNED: Set[str] = set()


def _fresh_name() -> str:
    # pid + counter disambiguate within a run; the random suffix guards
    # against collisions with leftovers from a crashed previous run.
    return (
        f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_COUNTER)}-"
        f"{secrets.token_hex(4)}"
    )


def create_segment(shape: Sequence[int]) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Create a shared segment holding a uint64 array of ``shape``.

    Returns the segment and a writable ndarray view over its buffer.
    """
    nbytes = int(np.prod(shape, dtype=np.int64)) * LIMB_DTYPE().itemsize
    seg = shared_memory.SharedMemory(create=True, size=max(nbytes, 1), name=_fresh_name())
    _CREATED[seg.name] = seg
    view = np.ndarray(tuple(shape), dtype=LIMB_DTYPE, buffer=seg.buf)
    return seg, view


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment by name (worker side).

    Attachments are deliberately *not* registered with the attaching
    process's ``resource_tracker``: the creator owns unlinking, and a
    tracked attachment would double-unlink (with a warning) when the
    worker exits.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        # Suppress registration for the duration of the attach; an
        # unregister-after-the-fact would unbalance the tracker (the
        # creator's eventual unlink also unregisters) and make the
        # tracker process print KeyError noise at shutdown.
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@contextmanager
def mapped(name: str) -> Iterator[shared_memory.SharedMemory]:
    """The segment ``name`` for the duration of a ``with`` block.

    A segment this process created is used through its own mapping;
    any other is attached for the block and detached after it.
    """
    seg = _CREATED.get(name)
    if seg is not None:
        yield seg
        return
    seg = attach_segment(name)
    try:
        yield seg
    finally:
        detach_segment(seg)


def segment_view(seg: shared_memory.SharedMemory, shape: Sequence[int]) -> np.ndarray:
    """A uint64 ndarray view of ``shape`` over a segment's buffer."""
    return np.ndarray(tuple(shape), dtype=LIMB_DTYPE, buffer=seg.buf)


def detach_segment(seg: shared_memory.SharedMemory) -> None:
    """Unmap a segment without destroying it (worker side, after a task)."""
    try:
        seg.close()
    except BufferError:  # a view still references the buffer; leave mapped
        pass


def release_segment(seg: shared_memory.SharedMemory) -> None:
    """Unmap *and* destroy a segment this process created."""
    if seg.name not in _CREATED:
        raise ParallelExecutionError(
            f"segment {seg.name!r} was not created by this process"
        )
    _CREATED.pop(seg.name, None)
    _ARENA_OWNED.discard(seg.name)
    try:
        seg.close()
    except BufferError:
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass


def is_created(name: str) -> bool:
    """Whether ``name`` is a still-live segment created by this process."""
    return name in _CREATED


def release_by_name(name: str) -> bool:
    """Defensively destroy a created segment by name, if still live.

    The executor calls this from ``close()`` for every segment that was
    named in a batch's task specs: normally the batch's ``finally``
    block released them all, but a run aborted by a hard error (or a
    caller driving :meth:`~repro.par.executor.ParallelExecutor.run`
    directly without that cleanup) must not leave ``/dev/shm`` dirty
    until ``atexit``. Returns whether a segment was actually reclaimed.
    """
    seg = _CREATED.get(name)
    if seg is None:
        return False
    release_segment(seg)
    return True


def created_segments() -> int:
    """How many created segments are still live (leak check for tests).

    Arena-held segments are pooled capacity with executor lifetime, not
    per-batch allocations, so they are excluded; see
    :func:`arena_segments` for that count.
    """
    return sum(1 for name in _CREATED if name not in _ARENA_OWNED)


def arena_segments() -> int:
    """How many still-live segments are held by arena pools."""
    return len(_ARENA_OWNED)


def cleanup_all() -> None:
    """Destroy every still-live segment created by this process."""
    for name in list(_CREATED):
        release_segment(_CREATED[name])


def _size_class(nbytes: int) -> int:
    """Round a request up to its power-of-two arena size class."""
    size = ARENA_MIN_BYTES
    while size < nbytes:
        size *= 2
    return size


class ArenaPool:
    """Pool-lifetime shared-memory arena with size-classed free lists.

    ``lease(shape)`` hands out a segment at least large enough for a
    uint64 array of ``shape`` — recycled from the free list when a
    previous batch returned one of the same size class, freshly created
    otherwise. ``release(seg)`` returns the segment to the free list
    *without* unlinking it, so steady-state batches stop paying the shm
    create/unlink syscall pair entirely. ``drain()`` destroys
    everything; :meth:`~repro.par.executor.ParallelExecutor.close` calls
    it before its defensive per-name reclaim.

    Names never repeat (:func:`_fresh_name` mixes a counter and random
    token), so a worker-side attachment cache can key on segment name
    without aliasing recycled capacity to stale mappings.
    """

    def __init__(self) -> None:
        self._free: Dict[int, List[shared_memory.SharedMemory]] = {}
        self._leased: Dict[str, int] = {}
        self._held_bytes = 0
        self.stats = {
            "leases": 0,
            "reuses": 0,
            "creates": 0,
            "high_water_bytes": 0,
            "high_water_segments": 0,
        }

    def _segment_count(self) -> int:
        return len(self._leased) + sum(len(v) for v in self._free.values())

    def lease(self, shape: Sequence[int]) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
        """Lease a segment sized for a uint64 array of ``shape``.

        Returns the segment and a writable ndarray view of exactly
        ``shape`` over the head of its (possibly larger) buffer.
        """
        nbytes = int(np.prod(shape, dtype=np.int64)) * LIMB_DTYPE().itemsize
        size = _size_class(max(nbytes, 1))
        self.stats["leases"] += 1
        free = self._free.get(size)
        if free:
            seg = free.pop()
            self.stats["reuses"] += 1
            count("par.arena.reuses")
        else:
            seg = shared_memory.SharedMemory(
                create=True, size=size, name=_fresh_name()
            )
            _CREATED[seg.name] = seg
            _ARENA_OWNED.add(seg.name)
            self.stats["creates"] += 1
            count("par.arena.creates")
            self._held_bytes += size
        self._leased[seg.name] = size
        count("par.arena.leases")
        count("par.arena.leased_bytes", amount=size)
        if self._held_bytes > self.stats["high_water_bytes"]:
            self.stats["high_water_bytes"] = self._held_bytes
            self.stats["high_water_segments"] = self._segment_count()
            set_gauge("par.arena.high_water_bytes", self._held_bytes)
            set_gauge(
                "par.arena.high_water_segments",
                self.stats["high_water_segments"],
            )
        view = np.ndarray(tuple(shape), dtype=LIMB_DTYPE, buffer=seg.buf)
        return seg, view

    def release(self, seg: shared_memory.SharedMemory) -> None:
        """Return a leased segment to the free list (no unlink)."""
        size = self._leased.pop(seg.name, None)
        if size is None:
            # Not ours any more (drained or retired mid-batch, or a
            # foreign segment): destroy if this process still owns it,
            # else just unmap.
            if seg.name in _CREATED:
                release_segment(seg)
            else:
                detach_segment(seg)
            return
        self._free.setdefault(size, []).append(seg)

    def retire(self, names: Iterable[str]) -> None:
        """Never recycle these leases: a worker may still write into
        them, so releasing one destroys it instead."""
        for name in names:
            self._held_bytes -= self._leased.pop(name, 0)

    def drain(self) -> int:
        """Destroy every held segment (leased and free); returns count."""
        drained = 0
        for free in self._free.values():
            for seg in free:
                release_segment(seg)
                drained += 1
        self._free.clear()
        for name in list(self._leased):
            if release_by_name(name):
                drained += 1
        self._leased.clear()
        self._held_bytes = 0
        if drained:
            count("par.arena.drained", amount=drained)
        return drained


atexit.register(cleanup_all)
