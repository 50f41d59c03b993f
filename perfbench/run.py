#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload batch-render --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` runs the program under test as cold subprocesses and
reports the end-to-end metrics; ``--trace 1`` runs the same inputs
in-process with the layer wrappers of ``perfbench/tracing.py`` armed and
reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero when any operation or output check failed.

The benchmark runs from a checkout of the repository and builds nothing:
it imports the package from ``src/``.  Scratch files live under
``.bench_work/`` in the checkout and are removed at exit; a traced run
leaves its spans in ``.bench_trace/<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("batch-render", "batch-extract", "follow-live", "serve-mixed")
#: prctl option that re-parents orphaned descendants to this process.
PR_SET_CHILD_SUBREAPER = 36
#: How long leftover descendants get to exit on their own before SIGKILL.
REAP_GRACE_S = 10.0


def become_subreaper() -> None:
    """Adopt orphaned descendants.

    A daemon's pool workers and ``multiprocessing`` resource tracker are
    grandchildren of the benchmark; when their parent exits first they
    would outlive the run.  As a child subreaper this process inherits
    them and :func:`reap_descendants` waits for each one.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _live_children() -> list:
    pids = []
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in children.read_text().split()]
        except OSError:
            pass
    return pids


def reap_descendants() -> None:
    """Stop this process's resource tracker, then wait until no child
    (own or adopted) is left; SIGKILL what is still running after
    :data:`REAP_GRACE_S`."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None and hasattr(tracker._resource_tracker, "_stop"):
        tracker._resource_tracker._stop()
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _live_children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process; prints each one's lines, then
    one JSON object merging their result lines (metrics keyed
    ``<workload>.<metric>``)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            line = json.loads(lines[-1])
        except ValueError:
            line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        else:
            lines = lines[:-1]
        print("\n".join(lines), flush=True)
        merged["correct"] &= line["correct"] and proc.returncode == 0
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        merged["metrics"].update({f"{name}.{key}": value
                                  for key, value in line["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    become_subreaper()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        try:
            return run_all(args)
        finally:
            reap_descendants()
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ.pop("REPRO_OBS_SINK", None)
    os.environ.pop("REPRO_FAULT_INJECT", None)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache-inproc")
    try:
        if args.trace:
            import traced
            outcome = traced.run(args.workload, args.seed, args.seconds, SRC, work,
                                 ROOT / ".bench_trace" / f"{args.workload}.jsonl")
        else:
            import workloads
            outcome = workloads.run(args.workload, args.seed, args.seconds, SRC, work)
    finally:
        reap_descendants()
        shutil.rmtree(work, ignore_errors=True)
    line = outcome.result_line()
    for name, value, unit in outcome.named:
        print(f"{args.workload:14s} {name:28s} {value:14.6g} {unit}")
    print(f"{args.workload:14s} {'error_rate':28s} "
          f"{line['failed'] / line['attempted']:14.6g} fraction")
    for reason in outcome.tally.failures:
        print(f"{args.workload:14s} FAILED: {reason}")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
