"""The untraced runs: the program under test runs as cold subprocesses
(CLI and daemon) and the end-to-end metrics are taken from outside.

Every workload reports the same contract metrics, each read as the unit
of work that workload delivers; perfbench/README.md has the table.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import threading
import time
from pathlib import Path

import inputs
from common import (
    Outcome,
    Tally,
    children_peak_rss_mb,
    cli_command,
    cold_help_s,
    frames_match_reference,
    manifest_complete,
    percentile,
    run_cli,
    sut_env,
    track_iou,
    tree_digest,
)
from repro.cache.store import ArtifactStore

SERVE_START_TIMEOUT_S = 60.0
SERVE_REQUEST_TIMEOUT_S = 60.0
SERVE_SETUPS = 3
SERVE_MIN_REQUESTS = 110
FOLLOW_EXIT_TIMEOUT_S = 120.0


# --------------------------------------------------------------------- #
# batch-render / batch-extract
# --------------------------------------------------------------------- #
def run_batch(name: str, seed: int, seconds: float, src: Path, work: Path) -> Outcome:
    """Cold ``repro run`` then cold ``repro run --resume`` over its
    directory, repeated for ``seconds`` (at least twice, so byte-identity
    can be checked)."""
    make = inputs.batch_render if name == "batch-render" else inputs.batch_extract
    data = make(seed, work)
    tally = Tally()
    out = Outcome(tally)
    setup_s = cold_help_s(src, work, tally)
    runs, resumes, run_dirs = [], [], []
    start = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - start < seconds:
        i = len(runs)
        run_dir = work / f"run{i}"
        env = sut_env(src, work / f"cache{i}")
        code, wall = run_cli(["run", data.config_path, "--out", run_dir,
                              *data.cli_flags], env, work, work / "run.log")
        tally.record(code == 0, f"repro run #{i} exited {code}")
        runs.append(wall)
        code, wall = run_cli(["run", "--resume", run_dir, *data.cli_flags],
                             env, work, work / "run.log")
        tally.record(code == 0, f"repro run --resume #{i} exited {code}")
        resumes.append(wall)
        run_dirs.append(run_dir)
    peak_rss = children_peak_rss_mb()

    first = run_dirs[0]
    store = ArtifactStore(first / "store")
    manifests = [(d / "manifest.json").read_bytes() if (d / "manifest.json").exists()
                 else b"" for d in run_dirs]
    tally.record(manifest_complete(first, store), "manifest incomplete")
    tally.record(all(m == manifests[0] for m in manifests),
                 "manifests differ across repeated runs of one seed")
    iou = track_iou(first, store, data.sequence, data.mask)
    tally.record(iou > 0.0, "tracked nothing (IoU 0)")
    if "render" in data.config["stages"]:
        checked, bad = frames_match_reference(first, store, data.sequence_dir)
        tally.record(bad == 0, f"{bad}/{checked} frames differ from the reference")

    steps = len(data.sequence)
    out.add("setup_s", setup_s, "s")
    out.add("latency_p50_s", percentile(runs, 50), "s")
    out.add("latency_p90_s", percentile(runs, 90), "s")
    out.add("throughput_per_s", steps * len(runs) / sum(runs), "1/s")
    out.add("peak_rss_mb", peak_rss, "MB")
    out.note("setup_s", setup_s, "s")
    out.note("run_s", percentile(runs, 50), "s")
    out.note("resume_s", percentile(resumes, 50), "s")
    out.note("runs", len(runs), "count")
    out.note("peak_rss_mb", peak_rss, "MB")
    out.note("track_iou", iou, "fraction")
    return out


# --------------------------------------------------------------------- #
# follow-live
# --------------------------------------------------------------------- #
def publish_open_loop(data, t0: float) -> tuple[list, list]:
    """Write each step at ``t0 + i * cadence`` (wall clock), payload files
    before the sidecar, then ``sequence.json`` right after the last
    step.  The schedule never waits for the follower.  Returns the due
    times and how late each step's first write started."""
    data.live_dir.mkdir(parents=True, exist_ok=True)
    due, late = [], []
    for i, files in enumerate(data.staged):
        when = t0 + i * data.cadence
        delay = when - time.time()
        if delay > 0:
            time.sleep(delay)
        due.append(when)
        late.append(max(0.0, time.time() - when))
        for name, payload in files:
            (data.live_dir / name).write_bytes(payload)
    (data.live_dir / "sequence.json").write_bytes(data.manifest)
    return due, late


def backlog_max(due: list, reached: list) -> int:
    """Most steps already due but not yet at their ``reached`` time (the
    follower starting them, or their frame being written), counted at
    each of those events."""
    worst = 0
    for now in reached:
        waiting = sum(1 for d, r in zip(due, reached) if d <= now < r)
        worst = max(worst, waiting)
    return worst


def follower_busy_s(due: list, rendered: list, exited: float) -> float:
    """Seconds the follower spent on the steps: for each step, from its
    due time or the previous step's frame, whichever is later, to its
    frame; then from the last frame to its exit.  Key-frame training
    waits for the last step, so classify and track of every step fall in
    that last step's share.  Gaps where it idled waiting for the schedule
    are left out, so the publisher's cadence does not set the figure."""
    busy, previous = 0.0, -float("inf")
    for when, frame in zip(due, rendered):
        busy += frame - max(when, previous)
        previous = frame
    return busy + exited - previous


def wait_for(path: Path, proc: subprocess.Popen, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            return True
        if proc.poll() is not None:
            return False
        time.sleep(0.01)
    return False


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Terminate a child if it still runs and always reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_follow(seed: int, seconds: float, src: Path, work: Path) -> Outcome:
    """Open-loop live publisher against a cold ``repro run --follow``."""
    data = inputs.follow_live(seed, seconds, work)
    tally = Tally()
    out = Outcome(tally)
    setup_s = cold_help_s(src, work, tally)
    run_dir = work / "follow-run"
    env = sut_env(src, work / "cache-follow")
    log = open(work / "follow.log", "wb")
    try:
        spawned = time.time()
        proc = subprocess.Popen(cli_command("run", data.config_path, "--out", run_dir,
                                            "--follow", "--follow-poll", data.poll),
                                env=env, cwd=work, stdout=log, stderr=subprocess.STDOUT)
        try:
            # The schedule starts once the follower is watching: its start-up
            # is setup_s's business, the per-step budget is this metric's.
            ready = wait_for(run_dir / "follow_status.json", proc, 60.0)
            tally.record(ready, "follower never started watching")
            t0 = time.time() + data.cadence
            due, late = publish_open_loop(data, t0)
            try:
                code = proc.wait(FOLLOW_EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = -1
            exited = time.time()
        finally:
            stop(proc)
    finally:
        log.close()
    tally.record(code == 0, f"repro run --follow exited {code}")
    peak_rss = children_peak_rss_mb()

    lags, rendered = [], []
    for vol, when in zip(data.sequence, due):
        frame = run_dir / "frames" / f"frame_{int(vol.time):06d}.ppm"
        if tally.record(frame.exists(), f"step {vol.time} left unprocessed"):
            rendered.append(frame.stat().st_mtime)
            lags.append(rendered[-1] - when)
        else:
            rendered.append(float("inf"))
    drain_s = exited - due[-1]

    # The offline reference run and the frame check are both single
    # threaded and untimed: run them side by side.
    offline = work / "offline-run"
    with open(work / "offline.log", "wb") as offline_log:
        reference = subprocess.Popen(cli_command("run", data.config_path, "--out", offline),
                                     env=sut_env(src, work / "cache-offline"), cwd=work,
                                     stdout=offline_log, stderr=subprocess.STDOUT)
        try:
            store = ArtifactStore(run_dir / "store")
            tally.record(manifest_complete(run_dir, store), "follow manifest incomplete")
            checked, bad = frames_match_reference(run_dir, store, data.live_dir)
            tally.record(bad == 0, f"{bad}/{checked} frames differ from the reference")
            try:
                code = reference.wait(FOLLOW_EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = -1
        finally:
            stop(reference)
    tally.record(code == 0, f"offline repro run exited {code}")
    tally.record((offline / "manifest.json").exists()
                 and (run_dir / "manifest.json").read_bytes()
                 == (offline / "manifest.json").read_bytes(),
                 "follow manifest differs from the offline run's")
    tally.record(tree_digest(run_dir / "store") == tree_digest(offline / "store"),
                 "follow store differs from the offline run's")
    iou = track_iou(run_dir, store, data.sequence, "ring")
    tally.record(iou > 0.0, "tracked nothing (IoU 0)")

    steps = len(data.sequence)
    lag_p50 = percentile(lags, 50) if lags else float("nan")
    lag_p90 = percentile(lags, 90) if lags else float("nan")
    out.add("setup_s", setup_s, "s")
    out.add("latency_p50_s", lag_p50, "s")
    out.add("latency_p90_s", lag_p90, "s")
    busy_s = follower_busy_s(due, rendered, exited)
    out.add("throughput_per_s", steps / busy_s, "1/s")
    out.add("peak_rss_mb", peak_rss, "MB")
    out.note("setup_s", setup_s, "s")
    out.note("lag_p50_s", lag_p50, "s")
    out.note("lag_p90_s", lag_p90, "s")
    out.note("drain_s", drain_s, "s")
    out.note("busy_s", busy_s, "s")
    out.note("steps", steps, "count")
    out.note("follower_wall_s", exited - spawned, "s")
    out.note("gen.late_max_s", max(late), "s")
    out.note("backlog_max", backlog_max(due, rendered), "count")
    out.note("peak_rss_mb", peak_rss, "MB")
    out.note("track_iou", iou, "fraction")
    return out


# --------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------- #
def post(port: int, endpoint: str, body: dict) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=SERVE_REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", f"/v1/{endpoint}", body=json.dumps(body).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def coalescer_counts(port: int) -> tuple[int, int]:
    """The daemon's ``serve.computes`` and ``serve.coalesced`` counters."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    counts = dict(line.split(" ", 1) for line in text.splitlines()
                  if line.startswith(("serve.computes ", "serve.coalesced ")))
    return (int(counts.get("serve.computes", 0)),
            int(counts.get("serve.coalesced", 0)))


def healthz(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


class Daemon:
    """One cold ``repro serve --workers 2`` child on a free port."""

    def __init__(self, src: Path, root: Path, work: Path, log) -> None:
        self.proc = subprocess.Popen(
            cli_command("serve", "--root", root, "--port", 0, "--workers", 2),
            env=sut_env(src, work / f"cache-{root.name}"), cwd=work,
            stdout=subprocess.PIPE, stderr=log, text=True)
        self.port = None
        line = self.proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match:
            self.port = int(match.group(1))

    def wait_healthy(self) -> bool:
        deadline = time.monotonic() + SERVE_START_TIMEOUT_S
        while self.port and time.monotonic() < deadline:
            if healthz(self.port):
                return True
            if self.proc.poll() is not None:
                return False
            time.sleep(0.005)
        return False

    def shutdown(self) -> int:
        """Graceful drain (SIGTERM); returns the exit code."""
        stop(self.proc)
        self.proc.stdout.close()
        return self.proc.returncode


def closed_loop(port: int, requests: list, seconds: float,
                connections: int = 2) -> tuple[list, float]:
    """``connections`` clients, each sending the next body of the shared
    seeded list only after its previous response arrived.  Stops taking
    new bodies once ``seconds`` have passed and at least
    :data:`SERVE_MIN_REQUESTS` were sent, so the p90 always has ten
    samples beyond it.  Returns samples and the loop wall."""
    lock = threading.Lock()
    cursor = [0]
    samples: list = []
    start = time.perf_counter()

    def client() -> None:
        while (time.perf_counter() - start < seconds
               or cursor[0] < SERVE_MIN_REQUESTS):
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            endpoint, body = requests[index]
            sent = time.perf_counter()
            try:
                status, payload = post(port, endpoint, body)
            except OSError as exc:
                status, payload = 0, str(exc).encode()
            samples.append((index, endpoint, status, time.perf_counter() - sent,
                            payload))

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, time.perf_counter() - start


def warm_up(port: int, warmup: list, tally: Tally) -> dict:
    responses = {}
    for endpoint, body in warmup:
        status, payload = post(port, endpoint, body)
        tally.record(status == 200, f"warm-up /v1/{endpoint} returned {status}")
        responses[endpoint] = json.loads(payload) if status == 200 else {}
    return responses


def repeat_consistent(samples: list, requests: list) -> bool:
    """Verbatim repeats of a render/track body answer byte-identically;
    repeated /v1/run bodies land on the same run directory."""
    first: dict = {}
    for index, endpoint, status, _, payload in sorted(samples, key=lambda s: s[0]):
        if status != 200:
            continue
        key = json.dumps(requests[index], sort_keys=True)
        body = json.loads(payload)
        view = ((body["run_dir"], body["stages"]) if endpoint == "run"
                else payload)
        if first.setdefault(key, view) != view:
            return False
    return True


def run_serve(seed: int, seconds: float, src: Path, work: Path) -> Outcome:
    """Warm ``repro serve --workers 2`` under a 2-connection closed loop."""
    tally = Tally()
    out = Outcome(tally)
    log = open(work / "serve.log", "w")
    daemon = None
    try:
        setups = []
        for i in range(SERVE_SETUPS):
            root = work / f"root{i}"
            sequences = inputs.serve_root(seed, root)
            data = inputs.serve_mixed(seed, sequences)
            spawned = time.perf_counter()
            daemon = Daemon(src, root, work, log)
            healthy = tally.record(daemon.wait_healthy(), "daemon never became healthy")
            warm = warm_up(daemon.port, data.warmup, tally) if healthy else {}
            setups.append(time.perf_counter() - spawned)
            if i < SERVE_SETUPS - 1:
                code = daemon.shutdown()
                tally.record(code == 0, f"repro serve exited {code}")
                daemon = None
        computes0, coalesced0 = coalescer_counts(daemon.port)
        samples, loop_s = closed_loop(daemon.port, data.requests, seconds)
        computes1, coalesced1 = coalescer_counts(daemon.port)
        code = daemon.shutdown()
        daemon = None
        tally.record(code == 0, f"repro serve exited {code}")
    finally:
        if daemon is not None:
            daemon.shutdown()
        log.close()
    peak_rss = children_peak_rss_mb()

    ok = [s for s in samples if s[2] == 200]
    for index, endpoint, status, _, _ in samples:
        tally.record(status == 200, f"/v1/{endpoint} #{index} returned {status}")
    tally.record(repeat_consistent(samples, data.requests),
                 "a repeated body answered differently")
    served_run = Path(warm.get("run", {}).get("run_dir", work / "missing"))
    store = ArtifactStore(root / ".store")
    iou = 0.0
    if tally.record((served_run / "manifest.json").exists(), "/v1/run wrote no run"):
        cli_config = dict(data.run_config, sequence=str(root / "argon"))
        config_path = work / "serve-run.json"
        config_path.write_text(json.dumps(cli_config))
        cli_run = work / "cli-run"
        code, _ = run_cli(["run", config_path, "--out", cli_run],
                          sut_env(src, work / "cache-cli"), work, work / "serve.log")
        tally.record(code == 0, f"equivalent CLI run exited {code}")
        tally.record((cli_run / "manifest.json").exists() and
                     (served_run / "manifest.json").read_bytes()
                     == (cli_run / "manifest.json").read_bytes(),
                     "/v1/run manifest differs from the equivalent CLI run's")
        iou = track_iou(served_run, store, sequences["argon"], "ring")
        tally.record(iou > 0.0, "tracked nothing (IoU 0)")

    latencies = [s[3] for s in ok]
    p50 = percentile(latencies, 50) if latencies else float("nan")
    p90 = percentile(latencies, 90) if latencies else float("nan")
    setup_s = percentile(setups, 50)
    out.add("setup_s", setup_s, "s")
    out.add("latency_p50_s", p50, "s")
    out.add("latency_p90_s", p90, "s")
    out.add("throughput_per_s", len(ok) / loop_s, "1/s")
    out.add("peak_rss_mb", peak_rss, "MB")
    out.note("setup_s", setup_s, "s")
    out.note("req_p50_ms", 1e3 * p50, "ms")
    out.note("req_p90_ms", 1e3 * p90, "ms")
    out.note("req_per_s", len(ok) / loop_s, "1/s")
    out.note("requests", len(samples), "count")
    joined = coalesced1 - coalesced0
    out.note("coalesced_frac", joined / max(1, joined + computes1 - computes0),
             "fraction")
    out.note("peak_rss_mb", peak_rss, "MB")
    out.note("track_iou", iou, "fraction")
    return out


def run(name: str, seed: int, seconds: float, src: Path, work: Path) -> Outcome:
    if name in ("batch-render", "batch-extract"):
        return run_batch(name, seed, seconds, src, work)
    if name == "follow-live":
        return run_follow(seed, seconds, src, work)
    return run_serve(seed, seconds, src, work)
