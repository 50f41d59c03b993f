"""Seeded, hermetic inputs for every workload.

Everything here runs outside the timed regions.  Sequences come from the
public ``repro.data`` makers and are written with ``save_sequence``; the
program under test only ever sees the saved directories and the config
files built here.  The same ``seed`` always gives the same bytes.

Seed voxels are taken from the generator's ground-truth mask.  README's
argon example seed ``[0, 16, 22, 14]`` is deliberately not used: it sits in the torus hole,
where tracking grows nothing (IoU 0.0 on every step).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from repro.data import make_argon_sequence, make_vortex_sequence
from repro.volume.io import save_sequence

# batch-render: README's batch run (argon 32x44x44, 13 steps 195..255).
BATCH_ARGON_SHAPE = (32, 44, 44)
# batch-extract: vortex 64^3 over 13 steps.
VORTEX_SHAPE = (64, 64, 64)
VORTEX_TIMES = list(range(50, 75, 2))
# follow-live: one step's work (TF and render) takes most of a cadence,
# so it, not the watcher's fixed waits, sets the lag.  The watcher polls
# every FOLLOW_POLL_S and admits a step after as long a quiet spell.
FOLLOW_SHAPE = (16, 20, 20)
FOLLOW_CADENCE_S = 0.21
FOLLOW_POLL_S = 0.01
FOLLOW_MIN_STEPS = 100          # p90 then has >= 10 samples beyond it
FOLLOW_RENDER_SIZE = 96
# serve-mixed: small stored sequences so one request is ~0.1 s.
SERVE_ARGON_SHAPE = (16, 20, 20)
SERVE_ARGON_TIMES = [195, 207, 219, 231, 243, 255]
SERVE_VORTEX_SHAPE = (24, 24, 24)
SERVE_VORTEX_TIMES = [50, 56, 62, 68, 74]
SERVE_RENDER_SIZE = 40
# The request mix: the three kinds in equal numbers, as the CI serve smoke
# leg sends one request per endpoint and repeats one of them verbatim.  A
# block is one /v1/run, one /v1/render (argon and vortex in turn) and one
# /v1/track in seeded order, plus one verbatim repeat (run, render and
# track in turn) placed right after its original, so the two connections
# usually have both in flight and the coalescer joins them.
SERVE_KINDS = ("run", "render", "track")


@dataclass
class BatchInputs:
    sequence: object          # the in-memory VolumeSequence (ground truth)
    sequence_dir: Path
    config: dict
    config_path: Path
    mask: str                 # ground-truth mask name scored by track_iou
    cli_flags: list           # extra `repro run` flags for this workload


def seed_on_mask(sequence, mask_name: str, step_index: int = 0) -> list:
    """A 4D seed ``[step, z, y, x]`` on the ground-truth feature: its
    deepest voxel, ties broken by the most mask voxels around it.  The
    middle entry of the mask's voxel list (the figure benchmarks' rule)
    can fall on one of the few mask voxels the classifier misses, and
    then nothing is tracked at all."""
    mask = sequence[step_index].mask(mask_name)
    score = (ndimage.distance_transform_edt(mask)
             + ndimage.uniform_filter(mask.astype(float), size=3) * mask)
    z, y, x = (int(v) for v in np.unravel_index(np.argmax(score), score.shape))
    return [step_index, z, y, x]


def _write_config(config: dict, path: Path) -> Path:
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def batch_render(seed: int, work: Path) -> BatchInputs:
    """Argon classify -> track -> tfs -> render at size 96, PPM export.

    ``render.mode`` and ``classify.mode`` stay at their defaults so a
    change of either default shows here.  Training uses the key-frame
    protocol: first and last step.
    """
    sequence = make_argon_sequence(shape=BATCH_ARGON_SHAPE, seed=seed)
    seq_dir = work / "argon"
    save_sequence(sequence, seq_dir)
    config = {
        "sequence": str(seq_dir),
        "stages": ["classify", "track", "tfs", "render"],
        "classify": {"mask": "ring",
                     "train_steps": [sequence.times[0], sequence.times[-1]]},
        "track": {"criterion": "classify",
                  "seed_voxel": seed_on_mask(sequence, "ring")},
        "render": {"size": 96, "export": "ppm"},
    }
    return BatchInputs(sequence, seq_dir, config,
                       _write_config(config, work / "batch-render.json"),
                       "ring", [])


def batch_extract(seed: int, work: Path) -> BatchInputs:
    """Vortex 64^3 classify + track, pipelined on a 2-worker pool."""
    sequence = make_vortex_sequence(shape=VORTEX_SHAPE, times=VORTEX_TIMES,
                                    seed=seed)
    seq_dir = work / "vortex"
    save_sequence(sequence, seq_dir)
    config = {
        "sequence": str(seq_dir),
        "stages": ["classify", "track"],
        "classify": {"mask": "vortex",
                     "train_steps": [sequence.times[0], sequence.times[-1]]},
        "track": {"criterion": "classify",
                  "seed_voxel": seed_on_mask(sequence, "vortex")},
    }
    return BatchInputs(sequence, seq_dir, config,
                       _write_config(config, work / "batch-extract.json"),
                       "vortex", ["--pipelined", "--workers", "2"])


@dataclass
class FollowInputs:
    sequence: object
    staged: list              # per step: [(file name, bytes)], sidecar last
    manifest: bytes           # the sequence.json the writer publishes last
    live_dir: Path
    config: dict
    config_path: Path
    cadence: float
    poll: float


def follow_live(seed: int, seconds: float, work: Path) -> FollowInputs:
    """Pre-generated argon steps for the open-loop live publisher.

    The step count covers ``seconds`` at the fixed cadence, with at least
    :data:`FOLLOW_MIN_STEPS`.  Training keeps the key-frame protocol
    (first and last step), so the follower classifies and tracks once the
    last step lands and each step's lag covers its TF and render tasks.
    Training on the first step alone would classify per step, but the
    classifier's time input does not carry over 100 steps: tracking dies
    within a few steps (IoU ~0.05).  ``tfs.domain`` is pinned to the full
    sequence's value range, which follow mode requires.
    """
    steps = max(FOLLOW_MIN_STEPS, int(round(seconds / FOLLOW_CADENCE_S)))
    sequence = make_argon_sequence(shape=FOLLOW_SHAPE, times=list(range(steps)),
                                   seed=seed)
    staging = work / "staged"
    save_sequence(sequence, staging)
    staged = []
    for vol in sequence:
        stem = f"step_{vol.time:06d}"
        sidecar = staging / f"{stem}.json"
        payload = sorted(p for p in staging.glob(f"{stem}.*") if p != sidecar)
        staged.append([(p.name, p.read_bytes()) for p in payload]
                      + [(sidecar.name, sidecar.read_bytes())])
    live = work / "live"
    lo, hi = sequence.value_range
    config = {
        "sequence": str(live),
        "stages": ["classify", "track", "tfs", "render"],
        "classify": {"mask": "ring",
                     "train_steps": [sequence.times[0], sequence.times[-1]]},
        "track": {"criterion": "classify",
                  "seed_voxel": seed_on_mask(sequence, "ring")},
        "tfs": {"domain": [float(lo), float(hi)]},
        "render": {"size": FOLLOW_RENDER_SIZE, "export": "ppm"},
    }
    return FollowInputs(sequence, staged,
                        (staging / "sequence.json").read_bytes(), live, config,
                        _write_config(config, work / "follow-live.json"),
                        FOLLOW_CADENCE_S, FOLLOW_POLL_S)


@dataclass
class ServeInputs:
    run_config: dict          # the /v1/run body's config (sequence by name)
    warmup: list              # one (endpoint, body) per endpoint
    requests: list            # seeded (endpoint, body) list, repeats included


def serve_root(seed: int, root: Path) -> dict:
    """Write the stored sequences a daemon serves; returns them by name."""
    sequences = {
        "argon": make_argon_sequence(shape=SERVE_ARGON_SHAPE,
                                     times=SERVE_ARGON_TIMES, seed=seed),
        "vortex": make_vortex_sequence(shape=SERVE_VORTEX_SHAPE,
                                       times=SERVE_VORTEX_TIMES, seed=seed),
    }
    for name, sequence in sequences.items():
        save_sequence(sequence, root / name)
    return sequences


def serve_mixed(seed: int, sequences: dict, count: int = 4000) -> ServeInputs:
    """The seeded request list: distinct render azimuths, distinct track
    ranges, /v1/run with varying render azimuth, and one body in four
    repeated verbatim right after its original (see :data:`SERVE_KINDS`)."""
    argon, vortex = sequences["argon"], sequences["vortex"]
    run_config = {
        "sequence": "argon",
        "stages": ["classify", "track", "tfs", "render"],
        "classify": {"mask": "ring",
                     "train_steps": [argon.times[0], argon.times[-1]]},
        "track": {"criterion": "classify",
                  "seed_voxel": seed_on_mask(argon, "ring")},
        "render": {"size": SERVE_RENDER_SIZE, "azimuth": 30.0},
    }
    track_seed = seed_on_mask(vortex, "vortex")
    seed_value = float(vortex[0].data[tuple(track_seed[1:])])
    hi = float(vortex.value_range[1])
    rng = np.random.default_rng(seed)

    def run_body(azimuth: float) -> dict:
        config = json.loads(json.dumps(run_config))
        config["render"]["azimuth"] = azimuth
        return {"config": config}

    def render_body(name: str, azimuth: float) -> dict:
        return {"sequence": name, "size": SERVE_RENDER_SIZE, "azimuth": azimuth}

    def track_body(fraction: float) -> dict:
        return {"sequence": "vortex", "seed_voxel": track_seed,
                "range": [round(seed_value * fraction, 6), hi]}

    warmup = [("run", run_body(30.0)), ("render", render_body("argon", 30.0)),
              ("track", track_body(0.5))]
    requests: list = []
    block = 0
    while len(requests) < count:
        fresh = []
        for kind in SERVE_KINDS:
            azimuth = round(float(rng.uniform(0.0, 360.0)), 4)
            if kind == "run":
                fresh.append(("run", run_body(azimuth)))
            elif kind == "render":
                name = ("argon", "vortex")[block % 2]
                fresh.append(("render", render_body(name, azimuth)))
            else:
                fraction = round(float(rng.uniform(0.5, 0.95)), 6)
                fresh.append(("track", track_body(fraction)))
        repeated = fresh[block % len(SERVE_KINDS)]
        for index in rng.permutation(len(fresh)):
            requests.append(fresh[index])
            if fresh[index] is repeated:
                requests.append(repeated)
        block += 1
    return ServeInputs(run_config, warmup, requests)
