"""Streaming out-of-core sequence processing (paper Secs. 4.2.3, 8).

The paper's deployment story for very long runs: the trained artifact is
tiny, each time step is independent, and steps live on disk — so workers
should *load, process, and drop* one step at a time instead of holding the
sequence in memory.  These helpers run a per-step function over a saved
sequence directory that way:

- :func:`stream_map` — serial streaming map (peak memory ≈ one step);
- :func:`prefetch_map` — ordered single-consumer map with a background
  producer thread, so step *t+1*'s I/O happens while step *t* is being
  processed (the streaming tracker's double-buffered loader).
"""

from __future__ import annotations

import json
import queue
import threading
import time as _time
from pathlib import Path

from repro.obs import get_metrics
from repro.volume.io import load_volume


def sequence_step_stems(directory, times=None) -> list[tuple[int, Path]]:
    """``(time, stem)`` pairs for every step of a saved sequence.

    ``times`` optionally restricts (and validates) the selection: a
    requested step id missing from the manifest raises ``KeyError``
    instead of being silently dropped.  The manifest's format version is
    checked here, so every streaming consumer rejects an incompatible
    directory up front rather than mid-run.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "sequence.json").read_text())
    version = manifest.get("format_version")
    if version is not None and version != 1:
        raise ValueError(f"unsupported sequence format version: {version}")
    stems = [
        (int(time), directory / stem)
        for stem, time in zip(manifest["steps"], manifest["times"])
    ]
    if times is None:
        return stems
    wanted = set(int(t) for t in times)
    kept = [(t, stem) for t, stem in stems if t in wanted]
    if len(kept) != len(wanted):
        have = {t for t, _ in kept}
        raise KeyError(f"missing time steps {sorted(wanted - have)} in {directory}")
    return kept


def stream_map(fn, directory, times=None, mmap: bool = False):
    """Serial streaming map: yield ``(time, fn(volume))`` per step.

    Only one step's voxels are resident at a time; results are yielded as
    they are produced so callers can also stream their consumption.
    """
    metrics = get_metrics()
    for time, stem in sequence_step_stems(directory, times=times):
        volume = load_volume(stem, mmap=mmap)
        with metrics.span("stream.step", time=time):
            result = fn(volume)
        yield time, result


def prefetch_map(fn, items, depth: int = 1):
    """Iterate ``fn(item)`` in order, computing up to ``depth`` items ahead.

    A daemon producer thread evaluates ``fn`` on upcoming items while the
    consumer processes the current result — the streaming tracker uses
    this to load and decode timestep *t+1* while *t* is being classified
    and grown.  The overlap is only real when ``fn`` spends its time off
    the GIL (file I/O, decompression); GIL-bound numpy work serializes
    against the consumer, so keep that on the consumer side.  The
    look-ahead is bounded *before* computation starts (a semaphore
    ticket per in-flight result), so at ``depth=1`` peak memory grows by
    exactly one prefetched result plus the producer's transients, never
    a whole pipeline of them.  The iterator itself retains no reference
    to a delivered result — once the consumer drops it, it is gone (a
    suspended generator frame would pin each result for a whole extra
    iteration, one full volume in the tracker's case).

    Results arrive strictly in item order.  An exception from ``fn``
    re-raises at the consumer's matching pull; if the consumer abandons
    the iterator, the producer is signalled and exits after its
    in-flight item.  ``fn`` runs on the producer thread and must be safe
    to call there.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return _PrefetchIterator(fn, list(items), depth)


class _PrefetchIterator:
    """Single-consumer iterator over a bounded producer thread."""

    def __init__(self, fn, items, depth: int) -> None:
        self._remaining = len(items)
        self._out: queue.Queue = queue.Queue()
        self._slots = threading.Semaphore(depth)
        self._stop = threading.Event()
        if items:
            self._producer = threading.Thread(
                target=self._produce, args=(fn, items),
                name="repro-prefetch", daemon=True)
            self._producer.start()

    def _produce(self, fn, items) -> None:
        for item in items:
            while not self._slots.acquire(timeout=0.1):
                if self._stop.is_set():
                    return
            if self._stop.is_set():
                return
            try:
                self._out.put((True, fn(item)))
            except BaseException as exc:  # re-raised at the consumer's pull
                self._out.put((False, exc))
                return

    def __iter__(self) -> "_PrefetchIterator":
        return self

    def __next__(self):
        if self._remaining <= 0:
            raise StopIteration
        ok, payload = self._out.get()
        if not ok:
            self._remaining = 0
            self._stop.set()
            raise payload
        self._remaining -= 1
        # Release before returning: the producer starts on the next item
        # while the consumer processes this one (the overlap), but never
        # runs more than ``depth`` results past the consumer's last pull.
        self._slots.release()
        get_metrics().counter("stream.prefetched").inc()
        return payload

    def close(self) -> None:
        """Signal the producer to exit (also triggered by abandonment)."""
        self._stop.set()

    def __del__(self) -> None:
        self._stop.set()


# --------------------------------------------------------------------- #
# Directory watching (in-situ follow mode)
# --------------------------------------------------------------------- #
def step_ready(stem, quiescence: float = 0.05, now: float | None = None):
    """Probe whether a step's on-disk files are complete and quiescent.

    Returns ``(time, signature)`` when the step at ``stem`` can be loaded
    safely, else ``None``.  A step is ready when its ``<stem>.json``
    sidecar parses, the ``.raw`` brick (and every listed mask brick)
    exists at exactly the byte size the sidecar's shape implies, and no
    file was modified within the last ``quiescence`` seconds.

    A writer using the repo's atomic conventions
    (:mod:`repro.utils.atomic`) always passes once the sidecar lands —
    renames are atomic and the sidecar is written last.  The size +
    quiescence checks exist for *foreign* writers that stream bytes
    straight into the final name: a torn half-written brick reads as
    not-yet-arrived instead of garbage voxels.

    ``signature`` captures ``(size, mtime_ns)`` of every file, so a
    caller can detect a later re-write of the same step by comparing
    signatures.
    """
    stem = Path(stem)
    json_path = stem.with_suffix(".json")
    try:
        meta = json.loads(json_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(meta, dict) or meta.get("format_version") != 1:
        return None
    if "shape" not in meta or "time" not in meta:
        return None
    voxels = 1
    for n in meta["shape"]:
        voxels = voxels * int(n)
    checks = [(json_path, None), (stem.with_suffix(".raw"), voxels * 4)]
    for mask_name in meta.get("masks", []):
        safe = str(mask_name).replace("/", "_")
        checks.append((stem.parent / f"{stem.name}.{safe}.mask.raw", voxels))
    newest = 0.0
    signature = []
    for path, want_size in checks:
        try:
            st = path.stat()
        except OSError:
            return None
        if want_size is not None and st.st_size != want_size:
            return None
        newest = max(newest, st.st_mtime)
        signature.append((path.name, st.st_size, st.st_mtime_ns))
    now = _time.time() if now is None else now
    if now - newest < quiescence:
        return None
    return int(meta["time"]), tuple(signature)


class SequenceWatcher:
    """Incremental scanner over a sequence directory being written live.

    Each :meth:`scan` reports the steps that became ready (or were
    re-written) since the previous scan, in time order.  Completion is
    signalled by the writer's ``sequence.json`` manifest — written last
    by :func:`repro.volume.io.save_sequence` and by
    :class:`repro.run.simwriter.SimulatedWriter` — whose step list
    :meth:`manifest_times` exposes once present.
    """

    def __init__(self, directory, quiescence: float = 0.05) -> None:
        self.directory = Path(directory)
        self.quiescence = float(quiescence)
        self._seen: dict[str, tuple] = {}  # stem name -> last signature

    def scan(self) -> list[tuple[int, Path, bool]]:
        """``(time, stem, rewritten)`` for every newly-ready step.

        ``rewritten`` marks a step whose files changed *after* it was
        already reported ready — the duplicate re-write case a follower
        must either dedup (same content) or reprocess (new content).
        """
        arrived: list[tuple[int, Path, bool]] = []
        if not self.directory.is_dir():
            return arrived
        now = _time.time()
        for json_path in sorted(self.directory.glob("*.json")):
            if json_path.name == "sequence.json":
                continue
            stem = json_path.with_suffix("")
            probe = step_ready(stem, quiescence=self.quiescence, now=now)
            if probe is None:
                continue
            step_time, signature = probe
            previous = self._seen.get(stem.name)
            if previous == signature:
                continue
            self._seen[stem.name] = signature
            arrived.append((step_time, stem, previous is not None))
        arrived.sort(key=lambda item: item[0])
        return arrived

    def settled(self) -> bool:
        """True when no reported step has a rewrite pending or in flight.

        A writer may re-write a step and only then publish its completion
        manifest; at that instant the rewrite can still be inside the
        quiescence window, where :meth:`scan` reports nothing.  Consumers
        must therefore not treat "all manifest times seen" as final until
        every reported step's on-disk signature again matches what was
        last reported — a mismatch (or an unreadable/torn state) means a
        change is still propagating.
        """
        now = _time.time()
        for name, signature in self._seen.items():
            probe = step_ready(self.directory / name,
                               quiescence=self.quiescence, now=now)
            if probe is None or probe[1] != signature:
                return False
        return True

    def manifest_times(self) -> list[int] | None:
        """Step ids of the completed sequence, or ``None`` while the
        writer has not yet published ``sequence.json``."""
        try:
            manifest = json.loads((self.directory / "sequence.json").read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(manifest, dict):
            return None
        version = manifest.get("format_version")
        if version is not None and version != 1:
            raise ValueError(f"unsupported sequence format version: {version}")
        return [int(t) for t in manifest.get("times", [])]
