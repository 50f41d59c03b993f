"""Parallel and out-of-core execution substrate.

The paper's large-data story has two halves this package reproduces:

- *"the processing of each time step is completely independent of other
  time steps, it is feasible and desirable to employ a large PC cluster"*
  (Sec. 8) — :mod:`repro.parallel.executor` is that per-timestep task farm:
  one worker-pool scheduler (:mod:`repro.parallel.pool`) with a
  deterministic serial fallback, per-task retry with exponential backoff
  and timeouts, structured :class:`TaskError` failures (or an
  ``on_error="skip"`` degraded mode), deterministic fault injection for
  CI (:mod:`repro.parallel.faults`), and shared-memory volume transport
  so big steps are not pickled per task (:mod:`repro.parallel.shm`).
- *"when the volume size is large … not all the data can fit in core"*
  (Sec. 4.2.2) — :mod:`repro.parallel.bricking` decomposes volumes into
  ghost-padded bricks for streaming.
"""

from repro.parallel.bricking import (
    Brick,
    assemble_bricks,
    axis_chunks,
    content_digest,
    iter_bricks,
    split_bricks,
)
from repro.parallel.executor import (
    MapResult,
    RetryPolicy,
    TaskError,
    TaskFailure,
    map_timesteps,
    will_use_processes,
)
from repro.parallel.faults import FaultInjector, InjectedFault, parse_fault_spec
from repro.parallel.pool import BroadcastRef, PoolError, PoolFuture, WorkerPool
from repro.parallel.shm import (
    HAS_SHARED_MEMORY,
    OpenSharedVolume,
    SharedVolumeArena,
    SharedVolumeHandle,
)
from repro.parallel.streaming import sequence_step_stems, stream_map

__all__ = [
    "Brick",
    "BroadcastRef",
    "FaultInjector",
    "HAS_SHARED_MEMORY",
    "InjectedFault",
    "MapResult",
    "OpenSharedVolume",
    "PoolError",
    "PoolFuture",
    "RetryPolicy",
    "SharedVolumeArena",
    "SharedVolumeHandle",
    "TaskError",
    "TaskFailure",
    "WorkerPool",
    "assemble_bricks",
    "axis_chunks",
    "content_digest",
    "iter_bricks",
    "map_timesteps",
    "parse_fault_spec",
    "sequence_step_stems",
    "split_bricks",
    "stream_map",
    "will_use_processes",
]
