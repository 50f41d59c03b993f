"""The traced runs: each workload's inputs run once in-process without
wrappers and once with them armed; the per-layer metrics come from the
second run's spans.

- batch-*: ``PipelineRunner`` (2 pool workers and pipelined for
  batch-extract, as its CLI flags say);
- follow-live: ``FollowRunner`` against the same open-loop publisher;
- serve-mixed: ``ServeApp`` on ``ServerHandle.start_in_thread`` under the
  same 2-connection closed loop.

``trace.overhead_frac`` compares the two runs: wall time of the run for
batch-*, the follower's own ``follow.step`` busy time for follow-live
(its wall time is set by the publisher's schedule), and mean request
latency for serve-mixed.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import inputs
import tracing
import workloads
from common import (
    LANE_TOLERANCE,
    Outcome,
    Tally,
    manifest_complete,
    percentile,
    sut_env,
    track_iou,
    tree_digest,
)
from repro.cache.store import ArtifactStore
from repro.obs import get_metrics
from repro.run import FollowRunner, PipelineRunner, RunConfig
from repro.serve.server import ServeApp, ServerHandle

LAYERS = ("volume", "train", "classify", "track", "tfs", "render", "cache",
          "run", "parallel", "follow", "serve", "bench")


# --------------------------------------------------------------------- #
# import layer: python -X importtime
# --------------------------------------------------------------------- #
_IMPORTTIME = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|\s*(\S+)")


def import_metrics(src: Path, work: Path, reps: int = 3) -> dict:
    """Seconds of a cold ``import repro`` and the self time of the
    numpy, scipy, networkx and repro modules inside it (medians)."""
    samples = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import repro"],
                              env=sut_env(src, work / "cache-import"), cwd=work,
                              capture_output=True, text=True, timeout=120)
        selfs: dict = {"numpy": 0, "scipy": 0, "networkx": 0, "repro": 0}
        total = 0
        for match in _IMPORTTIME.finditer(proc.stderr):
            own, cumulative, module = match.groups()
            top = module.split(".")[0]
            if top in selfs:
                selfs[top] += int(own)
            if module == "repro":
                total = int(cumulative)
        samples.append({"import.s": total, "import.numpy_s": selfs["numpy"],
                        "import.scipy_s": selfs["scipy"],
                        "import.networkx_s": selfs["networkx"],
                        "import.repro_self_s": selfs["repro"]})
    return {k: float(np.median([s[k] for s in samples])) / 1e6 for k in samples[0]}


# --------------------------------------------------------------------- #
# Per-layer metrics from spans
# --------------------------------------------------------------------- #
def layer_metrics(spans: list) -> dict:
    out = tracing.outermost
    dur = tracing.duration
    total = tracing.attr_sum
    named = lambda *names: [s for s in spans if s["name"] in names]
    own = tracing.self_times(spans)
    m: dict = {}
    loads = out(spans, ["volume.load_sequence", "volume.load_volume"])
    m["volume.load_s"] = (dur(loads), "s")
    m["volume.load_bytes"] = (total(loads, "bytes"), "B")
    m["train.s"] = (dur(out(spans, ["train.add_examples", "train.fit"])), "s")
    m["train.examples"] = (total(named("train.add_examples"), "examples"), "count")
    classify = out(spans, ["classify"])
    m["classify.s"] = (dur(classify), "s")
    m["classify.voxels"] = (total(classify, "voxels"), "count")
    m["classify.mvox_per_s"] = (total(classify, "voxels") / 1e6 / dur(classify)
                                if classify else 0.0, "Mvox/s")
    track = out(spans, ["track.grow_4d", "track.push", "track.finalize"])
    m["track.s"] = (dur(track), "s")
    m["track.voxels_grown"] = (total(track, "voxels"), "count")
    m["tfs.s"] = (dur(out(spans, ["tfs.add_box", "tfs.generate"])), "s")
    renders = out(spans, ["render.volume", "render.volume_fast"])
    m["render.s"] = (dur(renders), "s")
    m["render.frames"] = (len(renders), "count")
    m["render.pixels"] = (total(renders, "pixels"), "count")
    puts = named("store.put")
    m["store.put_s"] = (dur(puts), "s")
    m["store.put_bytes"] = (total(puts, "bytes"), "B")
    m["store.get_s"] = (dur(named("store.get")), "s")
    m["store.verify_s"] = (dur(named("store.verify")), "s")
    m["store.hash_s"] = (dur(out(spans, ["hash.content", "hash.volume",
                                         "hash.frame"])), "s")
    digests = named("hash.content")
    hashed = total(digests, "bytes")
    distinct = sum({s["attrs"]["digest"]: s["attrs"]["bytes"]
                    for s in digests}.values())
    m["store.hash_bytes"] = (hashed, "B")
    m["store.hash_amplification"] = (hashed / distinct if distinct else 0.0, "ratio")
    saves = named("manifest.save")
    m["manifest.saves"] = (len(saves), "count")
    m["manifest.save_s"] = (dur(saves), "s")
    m["run.residual_s"] = (sum(own[s["span"]] for s in named("run.walk")), "s")
    submits = named("pool.submit")
    m["pool.spawn_s"] = (dur(out(spans, ["pool.spawn"])), "s")
    m["pool.tasks"] = (len(submits), "count")
    m["pool.wait_s"] = (dur(named("pool.wait")), "s")
    m["pool.payload_bytes"] = (total(submits + named("pool.broadcast"), "bytes"), "B")
    m["pool.failures"] = (total(submits, "failed"), "count")
    scans = named("follow.scan")
    m["follow.scans"] = (len(scans), "count")
    m["follow.scan_s"] = (dur(scans), "s")
    for endpoint in ("run", "render", "track"):
        computes = named(f"serve.compute.{endpoint}")
        m[f"serve.compute_s.{endpoint}"] = (
            percentile([s["end"] - s["start"] for s in computes], 50)
            if computes else 0.0, "s")
    fetches = named("serve.fetch")
    by_parent = {s["parent"]: s for s in spans if s["name"].startswith("serve.compute.")}
    overheads = [(f["end"] - f["start"]) - (by_parent[f["span"]]["end"]
                                            - by_parent[f["span"]]["start"])
                 for f in fetches if f["span"] in by_parent]
    m["serve.overhead_ms"] = (1e3 * percentile(overheads, 50) if overheads else 0.0, "ms")
    m["serve.coalesced_frac"] = (
        sum(1 for f in fetches if f["attrs"]["coalesced"]) / len(fetches)
        if fetches else 0.0, "fraction")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s["layer"]] = layer_self.get(s["layer"], 0.0) + own[s["span"]]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = (layer_self[layer], "s")
    return m


@contextmanager
def timed_root(recorder, name: str):
    """The workload's root span.  The dict it yields gets ``wall``, read
    by a clock of its own outside the recorder, for
    :func:`tracing.lane_check`."""
    clock: dict = {}
    start = time.perf_counter()
    with recorder.span(name, "bench"):
        yield clock
    clock["wall"] = time.perf_counter() - start


def zero_follow_serve(m: dict) -> None:
    """Workload-specific metrics a workload does not exercise read 0."""
    for name, unit in (("follow.admit_wait_s", "s"), ("follow.step_s", "s"),
                       ("follow.backlog_max", "count"), ("gen.late_max_s", "s"),
                       ("serve.rejected", "count")):
        m.setdefault(name, (0.0, unit))


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #
def traced_batch(name: str, seed: int, work: Path, tally: Tally):
    make = inputs.batch_render if name == "batch-render" else inputs.batch_extract
    data = make(seed, work)
    workers, pipelined = (2, True) if name == "batch-extract" else (None, False)

    def one(run_dir: Path) -> float:
        start = time.perf_counter()
        PipelineRunner.create(RunConfig.from_dict(data.config), run_dir,
                              workers=workers, pipelined=pipelined).run()
        return time.perf_counter() - start

    one(work / "warm-up")        # first in-process run pays one-off costs
    plain = one(work / "plain")
    recorder = tracing.Recorder(work / "spans").arm()
    try:
        with timed_root(recorder, f"bench.{name}") as root:
            traced = one(work / "traced")
    finally:
        recorder.disarm()
    tally.record(manifest_complete(work / "traced", ArtifactStore(work / "traced" / "store")),
                 "traced manifest incomplete")
    tally.record((work / "plain" / "manifest.json").read_bytes()
                 == (work / "traced" / "manifest.json").read_bytes(),
                 "tracing changed the manifest")
    iou = track_iou(work / "traced", ArtifactStore(work / "traced" / "store"),
                    data.sequence, data.mask)
    return (recorder.collect(), root["wall"], traced / plain - 1.0,
            {"track.iou": (iou, "fraction")})


def traced_follow(seed: int, seconds: float, work: Path, tally: Tally):
    data = inputs.follow_live(seed, seconds, work)
    step_time = lambda: get_metrics().snapshot()["timers"]["follow.step"]["total_s"]

    root: dict = {}

    def one(tag: str, recorder=None):
        live = work / f"live-{tag}"
        run_dir = work / f"run-{tag}"
        config = RunConfig.from_dict(dict(data.config, sequence=str(live)))
        feed = dataclasses.replace(data, live_dir=live)
        box: dict = {}

        def publisher() -> None:
            deadline = time.monotonic() + 60.0
            while (not (run_dir / "follow_status.json").exists()
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            box["due"], box["late"] = workloads.publish_open_loop(
                feed, time.time() + data.cadence)

        thread = threading.Thread(target=publisher)
        thread.start()
        runner = FollowRunner.create(config, run_dir, poll=data.poll,
                                     idle_timeout=60.0)
        try:
            if recorder is None:
                runner.follow(live)
            else:
                with timed_root(recorder, "bench.follow-live") as clock:
                    runner.follow(live)
                root.update(clock)
        finally:
            thread.join()
        frames = [run_dir / "frames" / f"frame_{int(v.time):06d}.ppm"
                  for v in data.sequence]
        tally.record(all(f.exists() for f in frames), f"{tag}: a step left unprocessed")
        return box["due"], box["late"], step_time(), run_dir

    _, _, plain_busy, plain_dir = one("plain")
    recorder = tracing.Recorder(work / "spans").arm()
    try:
        due, late, traced_busy, run_dir = one("traced", recorder)
    finally:
        recorder.disarm()
    # The two runs watch different directories, so their config
    # fingerprints differ; the tasks and artifacts must not.
    tasks = lambda d: json.loads((d / "manifest.json").read_text())["stages"]
    tally.record(tasks(plain_dir) == tasks(run_dir)
                 and tree_digest(plain_dir / "store") == tree_digest(run_dir / "store"),
                 "tracing changed the follow run's tasks or artifacts")
    spans = recorder.collect()
    steps = {}
    for s in spans:
        if s["name"] == "follow.step":
            steps.setdefault(s["attrs"]["time"], s)
    order = [steps[int(v.time)] for v in data.sequence if int(v.time) in steps]
    started = [s["start"] for s in order]
    # Spans use perf_counter, the schedule wall-clock time; both advance
    # together, so one offset maps one onto the other.
    offset = time.time() - time.perf_counter()
    extra = {
        "follow.admit_wait_s": (percentile([s + offset - d for s, d in
                                            zip(started, due)], 50), "s"),
        "follow.step_s": (percentile([s["end"] - s["start"] for s in order], 50), "s"),
        "follow.backlog_max": (workloads.backlog_max(due, [s + offset for s in started]),
                               "count"),
        "gen.late_max_s": (max(late), "s"),
        "track.iou": (track_iou(run_dir, ArtifactStore(run_dir / "store"),
                                data.sequence, "ring"), "fraction"),
    }
    return spans, root["wall"], traced_busy / plain_busy - 1.0, extra


def traced_serve(seed: int, seconds: float, work: Path, tally: Tally):
    root_clock: dict = {}

    def one(tag: str, recorder=None):
        root = work / f"root-{tag}"
        sequences = inputs.serve_root(seed, root)
        data = inputs.serve_mixed(seed, sequences)
        handle = ServerHandle.start_in_thread(ServeApp(root, workers=2))
        try:
            warm = workloads.warm_up(handle.port, data.warmup, tally)
            if recorder is None:
                samples, _ = workloads.closed_loop(handle.port, data.requests, seconds)
            else:
                with timed_root(recorder, "bench.serve-mixed") as clock:
                    samples, _ = workloads.closed_loop(handle.port, data.requests,
                                                       seconds)
                root_clock.update(clock)
        finally:
            handle.shutdown()
        for index, endpoint, status, _, _ in samples:
            tally.record(status == 200, f"{tag}: /v1/{endpoint} #{index} returned {status}")
        served = Path(warm["run"]["run_dir"])
        return samples, track_iou(served, ArtifactStore(root / ".store"),
                                  sequences["argon"], "ring")

    plain, _ = one("plain")
    recorder = tracing.Recorder(work / "spans").arm()
    try:
        traced, iou = one("traced", recorder)
    finally:
        recorder.disarm()
    mean = lambda samples: float(np.mean([s[3] for s in samples]))
    extra = {"serve.rejected": (sum(1 for s in traced if s[2] == 429), "count"),
             "track.iou": (iou, "fraction")}
    return (recorder.collect(), root_clock["wall"], mean(traced) / mean(plain) - 1.0,
            extra)


def run(name: str, seed: int, seconds: float, src: Path, work: Path,
        trace_path: Path) -> Outcome:
    """Traced run of one workload; its spans are written to ``trace_path``
    as JSON lines."""
    tally = Tally()
    out = Outcome(tally)
    if name in ("batch-render", "batch-extract"):
        spans, wall, overhead, extra = traced_batch(name, seed, work, tally)
    elif name == "follow-live":
        spans, wall, overhead, extra = traced_follow(seed, seconds, work, tally)
    else:
        spans, wall, overhead, extra = traced_serve(seed, seconds, work, tally)
    metrics = import_metrics(src, work)
    metrics = {k: (v, "s") for k, v in metrics.items()}
    metrics.update(layer_metrics(spans))
    metrics.update(extra)
    zero_follow_serve(metrics)
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    root_err, lane_max = tracing.lane_check(spans, f"bench.{name}", wall)
    metrics["trace.selfsum_err"] = (root_err, "fraction")
    metrics["trace.lane_busy_max"] = (lane_max, "fraction")
    tally.record(root_err <= LANE_TOLERANCE,
                 f"root-lane self times miss the root's wall by {root_err:.2%}")
    tally.record(lane_max <= 1.0 + LANE_TOLERANCE,
                 f"a lane's self times sum to {lane_max:.2%} of the root's wall")
    for key in sorted(metrics):
        value, unit = metrics[key]
        out.add(key, value, unit)
        out.note(key, value, unit)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text("".join(json.dumps(s) + "\n" for s in spans))
    return out
