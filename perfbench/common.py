"""Helpers shared by the untraced and traced runs: the system-under-test
environment, cold CLI invocations, statistics and the output checks."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.cache.store import ArtifactStore
from repro.render.camera import Camera
from repro.render.raycast import render_volume
from repro.run.manifest import STATUS_COMPLETE
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.io import load_sequence

#: A cold CLI call that takes longer than this is a failure, not a sample.
CLI_TIMEOUT_S = 150.0
#: Exported frames may differ from the reference render by this many
#: 8-bit levels per channel (one quantisation step either way, plus one).
FRAME_TOLERANCE_LEVELS = 2
#: The traced root lane's self times must sum to the root's wall, and no
#: other lane's to more than that wall, within this share of it.
LANE_TOLERANCE = 0.01


class Tally:
    """Attempted/failed operation counts; every failure keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def sut_env(src: Path, cache_dir: Path) -> dict:
    """Environment for one cold invocation of the program under test.

    A fresh ``REPRO_CACHE_DIR`` per timed run keeps "cold" runs cold; the
    observability sink and fault injection are cleared.
    """
    env = dict(os.environ)
    env.pop("REPRO_OBS_SINK", None)
    env.pop("REPRO_FAULT_INJECT", None)
    env["PYTHONPATH"] = str(src)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def cli_command(*args) -> list:
    return [sys.executable, "-m", "repro.cli", *[str(a) for a in args]]


def run_cli(args, env: dict, cwd: Path, log: Path) -> tuple[int, float]:
    """Run one cold CLI invocation; returns (exit code, wall seconds).

    Output goes to ``log`` so a failure can be read afterwards.
    """
    with open(log, "ab") as out:
        start = time.perf_counter()
        try:
            proc = subprocess.run(cli_command(*args), env=env, cwd=cwd,
                                  stdout=out, stderr=subprocess.STDOUT,
                                  timeout=CLI_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = -1
        return code, time.perf_counter() - start


def cold_help_s(src: Path, work: Path, tally: Tally, reps: int = 5) -> float:
    """Median wall time of a cold ``repro --help`` (interpreter + import)."""
    walls = []
    for i in range(reps):
        env = sut_env(src, work / f"help-cache{i}")
        code, wall = run_cli(["--help"], env, work, work / "help.log")
        tally.record(code == 0, f"repro --help exited {code}")
        walls.append(wall)
    return float(np.median(walls))


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest reaped child process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Outcome:
    """What one workload run reports: the contract metrics, the
    workload-specific named metrics printed for people, and the tally."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.metrics: dict = {}
        self.named: list = []

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def note(self, name: str, value: float, unit: str) -> None:
        self.named.append((name, float(value), unit))

    def result_line(self) -> dict:
        return {"correct": not self.tally.failures,
                "attempted": self.tally.attempted,
                "failed": len(self.tally.failures),
                "metrics": self.metrics}


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #
def manifest_complete(run_dir: Path, store: ArtifactStore) -> bool:
    """Every stage complete and every recorded artifact verifiable."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for record in manifest["stages"].values():
        if record["status"] != STATUS_COMPLETE:
            return False
        if not all(store.has(info["key"]) for info in record["tasks"].values()):
            return False
    return True


def stage_keys(run_dir: Path, stage: str) -> dict:
    """``{label: key}`` of one stage's tasks in a run manifest."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    return {label: info["key"]
            for label, info in manifest["stages"][stage]["tasks"].items()}


def label(time_id: int) -> str:
    return f"step:{int(time_id):06d}"


def track_iou(run_dir: Path, store: ArtifactStore, sequence, mask: str) -> float:
    """Mean per-step IoU of the run's tracked masks against ground truth."""
    keys = stage_keys(run_dir, "track")
    ious = []
    for vol in sequence:
        tracked = store.get_array(keys[label(vol.time)]).astype(bool)
        truth = vol.mask(mask)
        union = np.count_nonzero(tracked | truth)
        ious.append(np.count_nonzero(tracked & truth) / union if union else 1.0)
    return float(np.mean(ious))


def _read_ppm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path} is not an 8-bit binary PPM")
    width, height = (int(v) for v in dims.split())
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)


def frames_match_reference(run_dir: Path, store: ArtifactStore,
                           sequence_dir: Path) -> tuple[int, int]:
    """Compare every exported frame with a ``render_volume`` reference.

    The reference uses the run's own stored TF for the step and the
    camera/step/shading of its config.  Returns (frames checked, frames
    outside :data:`FRAME_TOLERANCE_LEVELS`).
    """
    config = json.loads((run_dir / "config.json").read_text())["render"]
    camera = Camera(azimuth=config["azimuth"], elevation=config["elevation"],
                    width=config["size"], height=config["size"])
    tf_keys = stage_keys(run_dir, "tfs")
    sequence = load_sequence(sequence_dir, masks=False)
    checked = bad = 0
    for vol in sequence:
        tf = TransferFunction1D.from_dict(store.get_json(tf_keys[label(vol.time)]))
        image = render_volume(vol, tf, camera=camera, step=config["step"],
                              shading=config["shading"])
        expected = (image.composited() * 255.0 + 0.5).astype(np.uint8)
        frame = run_dir / "frames" / f"frame_{int(vol.time):06d}.ppm"
        checked += 1
        try:
            got = _read_ppm(frame)
        except (OSError, ValueError):
            bad += 1
            continue
        diff = np.abs(got.astype(np.int16) - expected.astype(np.int16))
        if got.shape != expected.shape or diff.max() > FRAME_TOLERANCE_LEVELS:
            bad += 1
    return checked, bad


def tree_digest(directory: Path) -> dict:
    """``{relative path: blake2b}`` of every file under a directory."""
    return {str(p.relative_to(directory)):
            hashlib.blake2b(p.read_bytes(), digest_size=16).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}
