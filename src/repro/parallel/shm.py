"""Shared-memory volume transport for the task farm.

The default way to ship a time step to a pool worker is to pickle the
whole :class:`~repro.volume.grid.Volume` into the IPC pipe — every byte
of voxel data is copied through a pipe per task.  For the paper-scale
volumes the farm targets (256³ ≈ 64 MiB per step, Sec. 7) that dwarfs
the actual work messages.  This module moves the voxels through
:mod:`multiprocessing.shared_memory` instead:

- the parent copies each step's voxels into a named shared segment once
  (:class:`SharedVolumeArena`);
- tasks carry only a :class:`SharedVolumeHandle` — segment name, shape,
  dtype, metadata — a few hundred bytes however large the volume is;
- workers attach the segment and wrap it in a zero-copy ``Volume`` view
  (float32 C-order arrays pass :func:`check_volume_array` unconverted).

Ground-truth masks are *not* shipped — workers classify or render, they
do not score — which is itself a payload win for the synthetic datasets.

Lifetime: the arena owns the segments; workers attach/close per task and
never unlink.  On Python < 3.13 attaching registers the segment with the
attaching process's ``resource_tracker``.  When that tracker is the
parent's, the registration is an idempotent set-insert the arena's
unlink undoes.  When it is the worker's own — a worker forked before the
parent's tracker was running, as a prespawned pool's are — the tracker
would unlink every attached segment when the worker exits (including
segments of a map still in flight) and print leak warnings, so
:func:`attach_shared_memory` undoes that registration, matching the
``track=False`` semantics that 3.13 made official.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.volume.grid import Volume

try:  # pragma: no cover - exercised via HAS_SHARED_MEMORY gating
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - stdlib module absent (exotic builds)
    shared_memory = None

HAS_SHARED_MEMORY = shared_memory is not None


def _tracker_running() -> bool:
    """Whether this process holds a connection to a resource tracker."""
    try:
        from multiprocessing import resource_tracker

        return resource_tracker._resource_tracker._fd is not None
    except Exception:  # pragma: no cover - tracker internals moved
        return False


#: Whether this process shares its parent's resource tracker.  A child
#: inherits the tracker connection only if the parent's tracker was
#: running when the child was forked (a spawned child is handed it before
#: any module loads), so the state is captured at import and again right
#: after every fork — never later, when the process may have started a
#: tracker of its own.
_tracker_inherited = _tracker_running()


def _record_tracker_at_fork() -> None:
    global _tracker_inherited
    _tracker_inherited = _tracker_running()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_record_tracker_at_fork)


def _tracker_is_foreign() -> bool:
    """Whether this process's resource tracker is separate from its parent's.

    A child sharing the parent's tracker must *not* undo its attach-side
    registration (the parent's unlink does the single unregister).  A
    child without one starts a private tracker on its first attach, which
    would unlink every attached segment when the child exits — there the
    registration has to be removed.
    """
    import multiprocessing as mp

    if mp.parent_process() is None:
        return False
    return not _tracker_inherited


def attach_shared_memory(name: str):
    """Attach an existing segment without taking resource-tracker ownership."""
    if not HAS_SHARED_MEMORY:
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        shm = shared_memory.SharedMemory(name=name)
        if _tracker_is_foreign():
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals moved
                pass
        return shm


@dataclass(frozen=True)
class SharedVolumeHandle:
    """Picklable reference to a volume parked in shared memory."""

    shm_name: str
    shape: tuple[int, int, int]
    time: int = 0
    name: str = ""

    @property
    def nbytes(self) -> int:
        """Voxel bytes the handle refers to (always float32)."""
        n = 1
        for dim in self.shape:
            n *= dim
        return n * 4

    def open(self) -> tuple[Volume, object]:
        """Attach and wrap as a zero-copy ``Volume``.

        Returns ``(volume, segment)``; the caller must keep ``segment``
        alive while using the volume and ``segment.close()`` afterwards
        (or use :class:`OpenSharedVolume`).
        """
        shm = attach_shared_memory(self.shm_name)
        data = np.ndarray(self.shape, dtype=np.float32, buffer=shm.buf)
        return Volume(data, time=self.time, name=self.name), shm


class OpenSharedVolume:
    """``with OpenSharedVolume(handle) as volume: ...`` worker-side view."""

    def __init__(self, handle: SharedVolumeHandle) -> None:
        self._handle = handle
        self._shm = None

    def __enter__(self) -> Volume:
        volume, self._shm = self._handle.open()
        return volume

    def __exit__(self, *exc) -> None:
        if self._shm is not None:
            self._shm.close()
            self._shm = None


@dataclass(frozen=True)
class SharedArrayHandle:
    """Picklable reference to an arbitrary ndarray parked in shared memory.

    The volume-shaped :class:`SharedVolumeHandle` covers the common case;
    this generic sibling carries any shape/dtype — the tile renderer uses
    it for ``(nz, ny, nx, 4)`` RGBA stacks and ``(nz, ny, nx, 3)``
    gradient stacks that ride alongside the scalar volume.
    """

    shm_name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Bytes of the array the handle refers to."""
        n = np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= dim
        return n

    def open(self) -> tuple[np.ndarray, object]:
        """Attach and wrap as a zero-copy ndarray view.

        Returns ``(array, segment)``; keep ``segment`` alive while using
        the array and ``segment.close()`` afterwards (or use
        :class:`OpenSharedArray`).
        """
        shm = attach_shared_memory(self.shm_name)
        array = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=shm.buf)
        return array, shm


class OpenSharedArray:
    """``with OpenSharedArray(handle) as array: ...`` worker-side view."""

    def __init__(self, handle: SharedArrayHandle) -> None:
        self._handle = handle
        self._shm = None

    def __enter__(self) -> np.ndarray:
        array, self._shm = self._handle.open()
        return array

    def __exit__(self, *exc) -> None:
        if self._shm is not None:
            self._shm.close()
            self._shm = None


class SharedVolumeArena:
    """Parent-side owner of the shared segments for one map call.

    Use as a context manager around the :func:`map_timesteps` call so the
    segments outlive every task but are unlinked even when the map
    raises::

        with SharedVolumeArena() as arena:
            payloads = [(clf, arena.share(vol)) for vol in sequence]
            outcome = map_timesteps(_classify_one_shm, payloads, ...)
    """

    def __init__(self) -> None:
        if not HAS_SHARED_MEMORY:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self._segments: list = []

    def share(self, volume: Volume) -> SharedVolumeHandle:
        """Copy one volume's voxels into a new segment; return its handle."""
        data = np.ascontiguousarray(volume.data, dtype=np.float32)
        shm = shared_memory.SharedMemory(create=True, size=data.nbytes)
        view = np.ndarray(data.shape, dtype=np.float32, buffer=shm.buf)
        view[...] = data
        self._segments.append(shm)
        return SharedVolumeHandle(
            shm_name=shm.name, shape=tuple(data.shape),
            time=volume.time, name=volume.name,
        )

    def share_array(self, array: np.ndarray) -> SharedArrayHandle:
        """Copy any ndarray into a new segment; return its generic handle."""
        data = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=data.nbytes)
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
        view[...] = data
        self._segments.append(shm)
        return SharedArrayHandle(
            shm_name=shm.name, shape=tuple(data.shape), dtype=data.dtype.str,
        )

    @property
    def total_bytes(self) -> int:
        """Voxel bytes currently parked in the arena."""
        return sum(shm.size for shm in self._segments)

    def close(self) -> None:
        """Close and unlink every segment (idempotent)."""
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments = []

    def __enter__(self) -> "SharedVolumeArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
