"""Spans around the public entry points of each layer, recorded from outside.

Nothing here edits the package: :meth:`Recorder.arm` wraps the callables
listed in :func:`layer_wrappers` (a class attribute for methods; for module
functions, every loaded ``repro`` module attribute that refers to the
function) and :meth:`Recorder.disarm` puts the originals back.

A span is ``name, layer, start, end, span id, parent id, trace id`` plus
counting attributes, kept in memory.  The current span lives in a
context variable, so spans nest per thread and per asyncio task.  Work
submitted to the worker pool or the serve dispatcher carries the
submitting span as its parent.  Pool workers are forked after arming, so
they inherit the wrappers; each worker appends its spans to
``spans-<pid>.jsonl`` after every task and :meth:`Recorder.collect`
merges them.

Self time: a span's duration minus the union of its children's intervals
in the same lane (one lane per process, thread and asyncio task).  Work
in another lane runs concurrently and is that lane's own busy time.
:func:`lane_check` holds the self times against a wall clock read outside
the recorder.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import itertools
import json
import os
import pickle
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span",
                                                          default=None)
# The armed recorder.  Module state on purpose: forked pool workers reach
# it through the TracedTask they unpickle, which cannot carry it.
_ACTIVE = None


def _lane() -> str:
    try:
        task = asyncio.current_task()
    except RuntimeError:
        task = None
    return f"{os.getpid()}:{threading.get_ident()}:{id(task) if task else 0}"


class TracedTask:
    """Picklable pool task: runs ``fn`` under the submitting span."""

    def __init__(self, fn, context) -> None:
        self.fn = fn
        self.context = context

    def __call__(self, item):
        recorder = _ACTIVE
        if recorder is None:
            return self.fn(item)
        recorder.enter_process()
        token = _CURRENT.set(self.context)
        try:
            with recorder.span("pool.task", "parallel",
                               fn=getattr(self.fn, "__name__", "?")):
                return self.fn(item)
        finally:
            _CURRENT.reset(token)
            recorder.spill()


class Recorder:
    """Span store plus the patch/unpatch bookkeeping."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list = []
        self.pid = os.getpid()
        self._ids = itertools.count()
        self._undo: list = []

    # -- spans ---------------------------------------------------------- #
    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        parent = _CURRENT.get()
        span_id = f"{os.getpid()}-{next(self._ids)}"
        record = {"name": name, "layer": layer, "span": span_id,
                  "parent": parent[1] if parent else None,
                  "trace": parent[0] if parent else span_id,
                  "lane": _lane(), "attrs": attrs,
                  "start": time.perf_counter()}
        token = _CURRENT.set((record["trace"], span_id))
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(record)

    def enter_process(self) -> None:
        """In a forked worker, drop the span copies inherited from the parent."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans = []

    def spill(self) -> None:
        if not self.spans:
            return
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
        self.spans = []

    def collect(self) -> list:
        """This process's spans plus every worker's spilled spans."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text().splitlines()]
        return spans

    # -- wrapping ------------------------------------------------------- #
    def wrap(self, fn, name: str, layer: str, after=None, before=None):
        """``fn`` timed as a span; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` return counting attributes."""
        recorder = self
        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                attrs = before(args, kwargs) if before else {}
                with recorder.span(name, layer, **attrs) as span_attrs:
                    value = await fn(*args, **kwargs)
                    if after:
                        span_attrs.update(after(args, kwargs, value))
                    return value
        else:
            def wrapper(*args, **kwargs):
                attrs = before(args, kwargs) if before else {}
                with recorder.span(name, layer, **attrs) as span_attrs:
                    value = fn(*args, **kwargs)
                    if after:
                        span_attrs.update(after(args, kwargs, value))
                    return value
        return functools.wraps(fn)(wrapper)

    def replace_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str, layer: str, **hooks) -> None:
        self.replace_method(cls, attr, self.wrap(cls.__dict__[attr], name, layer,
                                                 **hooks))

    def patch_function(self, module, attr: str, name: str, layer: str,
                       **hooks) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, layer, **hooks)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def arm(self) -> "Recorder":
        global _ACTIVE
        layer_wrappers(self)
        _ACTIVE = self
        return self

    def disarm(self) -> None:
        global _ACTIVE
        _ACTIVE = None
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo = []


# --------------------------------------------------------------------- #
# The layers' public entry points
# --------------------------------------------------------------------- #
def _nbytes(*arrays) -> int:
    return int(sum(np.asarray(a).nbytes for a in arrays))


def _volume_bytes(volume) -> int:
    return int(volume.data.nbytes + sum(m.nbytes for m in volume.masks.values()))


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else (args[index] if len(args) > index
                                                else None)


def layer_wrappers(recorder: Recorder) -> None:
    from repro.cache.store import ArtifactStore
    from repro.core import pipeline
    from repro.core.dataspace import DataSpaceClassifier
    from repro.core.iatf import AdaptiveTransferFunction
    from repro.core.tracking import TrackStream
    from repro.parallel import bricking, pool
    from repro.parallel.streaming import SequenceWatcher
    from repro.render import fastcast, raycast
    from repro.run.follow import FollowRunner
    from repro.run.manifest import RunManifest
    from repro.run.runner import PipelineRunner
    from repro.segmentation import regiongrow
    from repro.serve import handlers
    from repro.serve.coalescer import RequestCoalescer
    from repro.transfer.tf1d import TransferFunction1D
    from repro.volume import io

    fn, meth = recorder.patch_function, recorder.patch_method
    # volume
    fn(io, "load_sequence", "volume.load_sequence", "volume",
       after=lambda a, k, seq: {"bytes": sum(_volume_bytes(v) for v in seq)})
    fn(io, "load_volume", "volume.load_volume", "volume",
       after=lambda a, k, vol: {"bytes": _volume_bytes(vol)})
    # core.dataspace: train and classify
    meth(DataSpaceClassifier, "add_examples", "train.add_examples", "train",
         after=lambda a, k, r: {"examples": int(sum(
             np.count_nonzero(m) for m in (_arg(a, k, 2, "positive_mask"),
                                           _arg(a, k, 3, "negative_mask"))
             if m is not None))})
    meth(DataSpaceClassifier, "train", "train.fit", "train")
    meth(DataSpaceClassifier, "classify", "classify", "classify",
         after=lambda a, k, cert: {"voxels": int(np.asarray(cert).size)})
    # segmentation + core.tracking
    fn(regiongrow, "grow_4d", "track.grow_4d", "track",
       after=lambda a, k, grown: {"voxels": int(np.count_nonzero(grown))})
    meth(TrackStream, "push", "track.push", "track")
    meth(TrackStream, "finalize", "track.finalize", "track",
         after=lambda a, k, res: {"voxels": int(sum(
             getattr(res, "voxel_counts", None) or ()))})
    # transfer + core.iatf
    meth(TransferFunction1D, "add_box", "tfs.add_box", "tfs")
    meth(AdaptiveTransferFunction, "generate", "tfs.generate", "tfs")
    # render
    pixels = lambda a, k, image: {"pixels": int(image.shape[0] * image.shape[1])}
    fn(raycast, "render_volume", "render.volume", "render", after=pixels)
    fn(fastcast, "render_volume_fast", "render.volume_fast", "render", after=pixels)
    # cache: artifact store and hashing
    meth(ArtifactStore, "put_array", "store.put", "cache",
         after=lambda a, k, r: {"bytes": _nbytes(a[2])})
    meth(ArtifactStore, "put_json", "store.put", "cache",
         after=lambda a, k, r: {"bytes": len(json.dumps(
             a[2], sort_keys=True, separators=(",", ":")))})
    meth(ArtifactStore, "get_array", "store.get", "cache")
    meth(ArtifactStore, "get_json", "store.get", "cache")
    meth(ArtifactStore, "has", "store.verify", "cache")
    fn(bricking, "content_digest", "hash.content", "cache",
       after=lambda a, k, digest: {"bytes": _nbytes(*a), "digest": digest})
    fn(pipeline, "volume_digest", "hash.volume", "cache")
    fn(pipeline, "frame_digest", "hash.frame", "cache")
    # run: manifest and walk
    meth(RunManifest, "save", "manifest.save", "run")
    meth(PipelineRunner, "run", "run.walk", "run")
    # parallel: worker pool
    meth(pool.WorkerPool, "prespawn", "pool.spawn", "parallel")
    meth(pool.WorkerPool, "_spawn_slot", "pool.spawn", "parallel")
    meth(pool.WorkerPool, "wait", "pool.wait", "parallel")
    meth(pool.WorkerPool, "broadcast", "pool.broadcast", "parallel",
         after=lambda a, k, r: {"bytes": len(pickle.dumps(
             a[1], protocol=pickle.HIGHEST_PROTOCOL))})
    submit = pool.WorkerPool.__dict__["submit"]

    def traced_submit(self, fn, item, **kwargs):
        with recorder.span("pool.submit", "parallel") as attrs:
            attrs["bytes"] = len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
            future = submit(self, TracedTask(fn, _CURRENT.get()), item, **kwargs)
            future.add_done_callback(
                lambda f, a=attrs: a.update(failed=0 if f.ok else 1))
            return future
    recorder.replace_method(pool.WorkerPool, "submit",
                            functools.wraps(submit)(traced_submit))
    dispatch = pool.PoolDispatcher.__dict__["submit"]

    def traced_dispatch(self, fn, *args, **kwargs):
        return dispatch(self, contextvars.copy_context().run, fn, *args, **kwargs)
    recorder.replace_method(pool.PoolDispatcher, "submit",
                            functools.wraps(dispatch)(traced_dispatch))
    # run.follow + parallel.streaming: the follow loop
    meth(SequenceWatcher, "scan", "follow.scan", "follow",
         after=lambda a, k, fresh: {"steps": [int(t) for t, _, _ in fresh]})
    meth(FollowRunner, "follow", "follow.loop", "follow")
    meth(FollowRunner, "_ingest_volume", "follow.step", "follow",
         before=lambda a, k: {"time": int(a[1].time)})
    # serve
    for endpoint in ("run", "render", "track"):
        fn(handlers, f"compute_{endpoint}", f"serve.compute.{endpoint}", "serve")
    meth(RequestCoalescer, "fetch", "serve.fetch", "serve",
         before=lambda a, k: {"coalesced": bool(a[0].has(a[1]))})


# --------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------- #
def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list) -> dict:
    """Self time per span id: its duration minus the union of its
    children's intervals in the same lane."""
    by_id = {s["span"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["lane"] == s["lane"]:
            children[s["parent"]].append((max(s["start"], parent["start"]),
                                          min(s["end"], parent["end"])))
    return {s["span"]: (s["end"] - s["start"]) - _union_length(children[s["span"]])
            for s in spans}


def lane_check(spans: list, root_name: str, wall: float) -> tuple[float, float]:
    """Compare the self times with ``wall``, the root's wall time taken by
    a clock outside the recorder.  Only spans inside the root's window
    count.  Returns the root lane's error (its summed self time against
    ``wall``, as a share of ``wall``) and the busiest other lane's summed
    self time as a share of ``wall``.

    Spans that overlap in one lane without nesting, or spans recorded
    twice (say a forked worker re-writing spans it inherited), push a
    lane's sum above the wall it ran in.
    """
    own = self_times(spans)
    root = next(s for s in spans if s["name"] == root_name)
    busy: dict = defaultdict(float)
    for s in spans:
        if s["start"] >= root["start"] and s["end"] <= root["end"]:
            busy[s["lane"]] += own[s["span"]]
    root_err = abs(busy.pop(root["lane"]) - wall) / wall
    return root_err, max(busy.values(), default=0.0) / wall


def outermost(spans: list, names) -> list:
    """Spans named in ``names`` with no ancestor also named in ``names``
    (so nested calls of one layer are not counted twice)."""
    names = set(names)
    by_id = {s["span"]: s for s in spans}
    picked = []
    for s in spans:
        if s["name"] not in names:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            picked.append(s)
    return picked


def duration(spans) -> float:
    return float(sum(s["end"] - s["start"] for s in spans))


def attr_sum(spans, key: str) -> float:
    return float(sum(s["attrs"].get(key, 0) for s in spans))
