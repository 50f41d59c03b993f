"""Crash-safe resumable execution of the classify → track → tfs → render DAG.

:class:`PipelineRunner` turns one :class:`~repro.run.config.RunConfig`
into a *run directory*::

    <run_dir>/
      config.json     the full config (identity of the run; written once)
      manifest.json   deterministic progress record (rewritten atomically)
      stats.json      volatile counters/timings — excluded from bit-identity
      store/          content-addressed artifacts (repro.cache.store)
      frames/         optional exported images (render.export)

Every stage decomposes into tasks; every task's artifact key is derived
**from its inputs** (stage parameters + upstream keys + volume digests),
so before executing anything the runner knows every key the run will
produce.  Execution is then memoized against the store: a key whose
artifact already exists (and passes integrity verification) is skipped,
one that is missing or corrupt is (re)computed.  ``repro run --resume``
is nothing but running the same memoized walk again — completed work is
skipped, interrupted work re-executes, and the final bytes (manifest +
store) are identical to an uninterrupted run's.

Crash semantics: tasks execute through the
:func:`repro.parallel.executor.map_timesteps` task farm with a global
task numbering (``fault_index_offset``), so a chaos schedule of
``REPRO_FAULT_INJECT="N:crash"`` SIGKILLs the process the moment the
run's N-th *executed* task starts.  Artifacts and the manifest are
persisted task-by-task (single-worker path) via atomic renames, so the
kill point can lose at most the in-flight task.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.dataspace import DataSpaceClassifier, ShellFeatureExtractor
from repro.core.iatf import AdaptiveTransferFunction
from repro.core.mlp import NeuralNetwork
from repro.core.pipeline import frame_digest, train_classifier, volume_digest
from repro.obs import get_metrics
from repro.parallel.executor import TaskError, map_timesteps
from repro.parallel.faults import as_injector
from repro.parallel.pool import WorkerPool
from repro.render.camera import Camera
from repro.render.image import Image
from repro.run.config import ConfigError, RunConfig
from repro.run.manifest import (
    STATUS_COMPLETE,
    STATUS_RUNNING,
    ManifestError,
    RunManifest,
)
from repro.cache.store import ArtifactStore, derive_key
from repro.segmentation.regiongrow import grow_4d
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.io import load_sequence
from repro.utils.atomic import atomic_write_text


class RunError(RuntimeError):
    """The run cannot proceed (bad run directory, config mismatch, …)."""


@dataclass(frozen=True)
class RunReport:
    """What one :meth:`PipelineRunner.run` invocation did."""

    run_dir: Path
    stages: dict          # stage name -> final status
    executed: int         # tasks computed this invocation
    skipped: int          # tasks satisfied from the store
    artifacts: int        # artifacts in the store after the run


# --------------------------------------------------------------------- #
# Module-level task functions (picklable for the process backend)
# --------------------------------------------------------------------- #
def _task_train_classifier(payload):
    """Train the data-space classifier; artifact = radius + network weights."""
    volumes, params = payload
    classifier, radius = train_classifier(
        volumes, **{k: v for k, v in params.items() if k != "train_steps"})
    return {"radius": radius, "net": classifier.net.to_dict()}


def _classifier_from_artifact(artifact: dict, params: dict) -> DataSpaceClassifier:
    extractor = ShellFeatureExtractor(radius=artifact["radius"],
                                      directions=params["directions"])
    classifier = DataSpaceClassifier(extractor, hidden=params["hidden"],
                                     seed=params["seed"])
    classifier.engine.net = NeuralNetwork.from_dict(artifact["net"])
    return classifier


def _task_classify_step(payload):
    """Per-step certainty field from the trained network artifact."""
    artifact, params, volume = payload
    classifier = _classifier_from_artifact(artifact, params)
    return classifier.classify(volume, mode=params["mode"]).astype(np.float32)


def _task_track(payload):
    """One 4D region growth over the whole criteria stack."""
    criteria, seed_voxel, params = payload
    grown = grow_4d(criteria, [tuple(seed_voxel)],
                    connectivity=params["connectivity"],
                    backend=params["engine"])
    return grown.astype(np.uint8)


def _task_tf_step(payload):
    """Per-step transfer function (static box or IATF-generated)."""
    kind, params, domain, iatf_dict, volume = payload
    if kind == "iatf":
        iatf = AdaptiveTransferFunction.from_dict(iatf_dict)
        return iatf.generate(volume).to_dict()
    lo = params["lo"] if params["lo"] is not None else domain[0] + 0.3 * (domain[1] - domain[0])
    hi = params["hi"] if params["hi"] is not None else domain[1]
    return TransferFunction1D(domain).add_box(lo, hi, params["opacity"]).to_dict()


def _task_render_step(payload):
    """Per-step frame; artifact = the raw float32 RGBA pixel array."""
    from repro.core.pipeline import _render_frame

    volume, tf_dict, camera, params = payload
    tf = TransferFunction1D.from_dict(tf_dict)
    image = _render_frame(volume, tf, camera, params["step"], params["shading"],
                          params["mode"], dict(params["fast_options"]))
    return image.pixels


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #
class PipelineRunner:
    """Executes (or resumes) one run directory for one config.

    ``workers`` overrides the config's worker count for *this invocation
    only* — it is a pure throughput knob (excluded from the config
    fingerprint and never written to ``config.json``), so a run started
    with one fan-out can be resumed with another and still reach
    byte-identical outputs.  ``pipelined=True`` switches from the
    stage-barrier walk to the dataflow walk: each step's
    classify(t) → tf(t) → render(t) chain advances independently
    (rendering of early steps overlaps classification of late ones)
    while track keeps its global barrier; outputs are byte-identical to
    the barrier mode because every artifact key and every recorded
    manifest entry is the same — only the execution order differs.
    """

    def __init__(self, config: RunConfig, run_dir, workers: int | None = None,
                 pipelined: bool = False, store: ArtifactStore | None = None,
                 pool: WorkerPool | None = None) -> None:
        self.config = config
        self.run_dir = Path(run_dir)
        # ``store`` plugs in an external (typically shared, longer-lived)
        # artifact store: the serve daemon passes one resident store so
        # artifacts memoize *across* run requests, not just within one.
        self.store = store if store is not None else ArtifactStore(self.run_dir / "store")
        self.exec_workers = workers if workers is not None else config.workers
        if self.exec_workers < 1:
            raise RunError(f"workers must be >= 1, got {self.exec_workers}")
        self.pipelined = pipelined
        self._pool = None
        # ``pool`` likewise reuses resident workers across runs; an
        # external pool is never closed by the runner.
        self._external_pool = pool
        self._metrics = get_metrics()
        self._task_no = 0      # global number of the next *executed* task
        self._executed = 0
        self._skipped = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, config: RunConfig, run_dir, workers: int | None = None,
               pipelined: bool = False, store: ArtifactStore | None = None,
               pool: WorkerPool | None = None) -> "PipelineRunner":
        """Start a fresh run directory (refuses to clobber an existing run)."""
        run_dir = Path(run_dir)
        if (run_dir / "manifest.json").exists() or (run_dir / "config.json").exists():
            raise RunError(
                f"{run_dir} already holds a run; use --resume to continue it")
        run_dir.mkdir(parents=True, exist_ok=True)
        # The config copy is the run's identity: written once, never
        # rewritten, and sufficient on its own to resume.
        atomic_write_text(run_dir / "config.json",
                          json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n")
        return cls(config, run_dir, workers=workers, pipelined=pipelined,
                   store=store, pool=pool)

    @classmethod
    def resume(cls, run_dir, workers: int | None = None,
               pipelined: bool = False, store: ArtifactStore | None = None,
               pool: WorkerPool | None = None) -> "PipelineRunner":
        """Reopen an interrupted run directory from its stored config."""
        run_dir = Path(run_dir)
        config_path = run_dir / "config.json"
        if not config_path.exists():
            raise RunError(f"{run_dir} is not a run directory (no config.json)")
        try:
            config = RunConfig.from_dict(json.loads(config_path.read_text()))
        except (json.JSONDecodeError, ConfigError) as exc:
            raise RunError(f"cannot resume {run_dir}: {exc}") from None
        manifest_path = run_dir / "manifest.json"
        if manifest_path.exists():
            try:
                manifest = RunManifest.load(manifest_path)
            except ManifestError as exc:
                raise RunError(f"cannot resume {run_dir}: {exc}") from None
            if manifest.config_fingerprint != config.fingerprint():
                raise RunError(
                    f"{run_dir}: manifest was produced by a different config "
                    f"(fingerprint {manifest.config_fingerprint} != "
                    f"{config.fingerprint()})")
        return cls(config, run_dir, workers=workers, pipelined=pipelined,
                   store=store, pool=pool)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> RunReport:
        """Execute every configured stage, skipping satisfied artifacts."""
        config = self.config
        self._metrics.reset("run.")
        self._injector = as_injector(None)
        if (self._injector is not None and self._injector.crashes
                and self.exec_workers > 1):
            raise RunError(
                "crash injection requires workers=1: a SIGKILLed pool worker "
                "would hang the map instead of killing the run")
        # Masks are loaded only when a stage actually reads them
        # (classify's training examples): volume digests — and therefore
        # every artifact key — then depend on voxels alone, which is the
        # same rule the follow-mode loader applies to a still-growing
        # directory.
        sequence = load_sequence(config.sequence,
                                 masks="classify" in config.stages)
        self._vdigests = [volume_digest(vol) for vol in sequence]
        seq_digest = derive_key("sequence", [v.time for v in sequence],
                                *[np.frombuffer(d.encode(), dtype=np.uint8)
                                  for d in self._vdigests])
        self.manifest = RunManifest(
            config_fingerprint=config.fingerprint(),
            sequence_digest=seq_digest,
            stage_names=config.stages,
        )
        self._save_manifest()
        self._pool = None
        try:
            if self.exec_workers > 1:
                # One resident pool for the entire run: every stage's map
                # (and, pipelined, every submitted chain) reuses the same
                # workers — one spawn cost per run, not per map.  An
                # external pool (the serve daemon's) is reused as-is.
                self._pool = self._external_pool or WorkerPool(workers=self.exec_workers)
            with self._metrics.span("run.total", stages=len(config.stages),
                                    pipelined=self.pipelined):
                if self.pipelined:
                    self._run_dataflow(sequence)
                else:
                    self._run_barrier(sequence)
        finally:
            if self._pool is not None and self._pool is not self._external_pool:
                self._pool.close()
            self._pool = None
        self._write_stats()
        return RunReport(
            run_dir=self.run_dir,
            stages={name: self.manifest.stages[name].status
                    for name in config.stages},
            executed=self._executed,
            skipped=self._skipped,
            artifacts=len(self.store.keys()),
        )

    def _run_barrier(self, sequence) -> None:
        stage_fns = {"classify": self._stage_classify,
                     "track": self._stage_track,
                     "tfs": self._stage_tfs,
                     "render": self._stage_render}
        for stage in self.config.stages:
            self.manifest.set_status(stage, STATUS_RUNNING)
            self._save_manifest()
            with self._metrics.span(f"run.stage.{stage}"):
                stage_fns[stage](sequence)
            self.manifest.set_status(stage, STATUS_COMPLETE)
            self._save_manifest()
            self._metrics.counter("run.stages.completed").inc()

    # ------------------------------------------------------------------ #
    # Task batch execution (the memoized walk)
    # ------------------------------------------------------------------ #
    def _execute_batch(self, stage: str, tasks: list[tuple]) -> None:
        """Run one dependency level of a stage.

        ``tasks`` holds ``(label, key, kind, fn, payload)`` tuples whose
        payloads are already complete (upstream artifacts resolved).
        Satisfied keys are skipped; the rest execute through the task
        farm under the run-global task numbering and are persisted —
        artifact first, manifest second — as results arrive.
        """
        for label, key, kind, _, _ in tasks:
            self.manifest.record_task(stage, label, key, kind)
        self._save_manifest()
        pending = []
        for task in tasks:
            _, key, _, _, _ = task
            if self.store.has(key):
                self._skipped += 1
                self._metrics.counter("run.tasks.skipped").inc()
            else:
                pending.append(task)
        if not pending:
            return
        if self.exec_workers == 1:
            # One farm call per task: the artifact and manifest land on
            # disk before the next task (and its potential crash) starts.
            for label, key, kind, fn, payload in pending:
                outcome = map_timesteps(fn, [payload], backend="serial",
                                        inject_faults=self._injector,
                                        fault_index_offset=self._task_no)
                self._persist(key, kind, outcome.results[0])
                self._task_no += 1
                self._executed += 1
                self._metrics.counter("run.tasks.executed").inc()
        else:
            outcome = map_timesteps(
                fn := pending[0][3], [p for _, _, _, _, p in pending],
                workers=self.exec_workers, backend="process",
                inject_faults=self._injector,
                fault_index_offset=self._task_no, pool=self._pool)
            for (label, key, kind, _, _), result in zip(pending, outcome.results):
                self._persist(key, kind, result)
                self._executed += 1
                self._metrics.counter("run.tasks.executed").inc()
            self._task_no += len(pending)
        self._save_manifest()

    def _execute_single(self, stage: str, label: str, key: str, kind: str,
                        fn, payload) -> bool:
        """Record, skip-or-execute, and persist one task (dataflow walk).

        Returns whether the task actually executed.  Unlike the batch
        path, the satisfied-key check happens immediately before
        execution, so a task whose key was produced *earlier in the same
        walk* (the shared box-TF artifact) is skipped, not recomputed.
        """
        self.manifest.record_task(stage, label, key, kind)
        if self.store.has(key):
            self._skipped += 1
            self._metrics.counter("run.tasks.skipped").inc()
            self._save_manifest()
            return False
        self._save_manifest()
        outcome = map_timesteps(fn, [payload], backend="serial",
                                inject_faults=self._injector,
                                fault_index_offset=self._task_no)
        self._persist(key, kind, outcome.results[0])
        self._task_no += 1
        self._executed += 1
        self._metrics.counter("run.tasks.executed").inc()
        self._save_manifest()
        return True

    # ------------------------------------------------------------------ #
    # Dataflow (pipelined) walk
    # ------------------------------------------------------------------ #
    def _run_dataflow(self, sequence) -> None:
        """Per-step classify(t) → tf(t) → render(t) chains; track barriers.

        Every artifact key and manifest task is identical to the barrier
        walk — the manifest serializes with sorted keys and statuses all
        end COMPLETE, so the run directory's final bytes are too.  Track
        still needs every classify step, so it runs as a global barrier
        after the chains drain; frame export (idempotent store reads)
        goes last.
        """
        do = set(self.config.stages)
        for stage in self.config.stages:
            self.manifest.set_status(stage, STATUS_RUNNING)
        self._save_manifest()
        with self._metrics.span("run.dataflow", steps=len(sequence),
                                workers=self.exec_workers):
            if self.exec_workers == 1:
                render_keys = self._dataflow_serial(sequence)
            else:
                render_keys = self._dataflow_pool(sequence)
            if "track" in do:
                with self._metrics.span("run.stage.track"):
                    self._stage_track(sequence)
        if "render" in do and self.config.render["export"]:
            self._export_frames(sequence, render_keys,
                                self.config.render["export"])
        for stage in self.config.stages:
            self.manifest.set_status(stage, STATUS_COMPLETE)
            self._metrics.counter("run.stages.completed").inc()
        self._save_manifest()

    def _dataflow_context(self, sequence) -> dict:
        """Pre-resolve everything the per-step chains need (key material)."""
        do = set(self.config.stages)
        ctx: dict = {"do": do}
        if "classify" in do:
            cparams = dict(self.config.classify)
            train_times = cparams["train_steps"] or [sequence.times[0]]
            missing = [t for t in train_times if t not in sequence.times]
            if missing:
                raise RunError(f"classify train_steps {missing} not in sequence "
                               f"times {sequence.times}")
            ctx.update(cparams=cparams, train_times=train_times,
                       train_key=self._classify_train_key(sequence))
        if "tfs" in do or "render" in do:
            tparams = dict(self.config.tfs)
            iatf_text = iatf_dict = None
            if tparams["kind"] == "iatf":
                try:
                    iatf_text = Path(tparams["iatf"]).read_text()
                except OSError as exc:
                    raise RunError(
                        f"cannot read IATF {tparams['iatf']}: {exc}") from None
                iatf_dict = json.loads(iatf_text)
            ctx.update(tparams=tparams, domain=self._tf_domain(sequence),
                       iatf_text=iatf_text, iatf_dict=iatf_dict)
        if "render" in do:
            rparams = dict(self.config.render)
            fast_opts = dict(rparams["fast_options"])
            ctx.update(
                rparams=rparams,
                camera=Camera(azimuth=rparams["azimuth"],
                              elevation=rparams["elevation"],
                              width=rparams["size"], height=rparams["size"]),
                sig=("exact" if rparams["mode"] == "exact"
                     else f"fast:{sorted(fast_opts.items())!r}"),
            )
        return ctx

    def _render_key(self, ctx: dict, vol, tf_dict: dict) -> str:
        tf = TransferFunction1D.from_dict(tf_dict)
        return frame_digest(vol, tf, ctx["camera"], ctx["rparams"]["step"],
                            ctx["rparams"]["shading"], ctx["sig"])

    def _dataflow_serial(self, sequence) -> list[str] | None:
        """Deterministic interleaved walk: train, then per step the
        classify/tf/render tasks back to back.  Crash injection works
        here exactly as on the barrier single-worker path — the executed
        task *order* differs (and is what the chaos battery pins)."""
        ctx = self._dataflow_context(sequence)
        do = ctx["do"]
        train_artifact = None
        if "classify" in do:
            train_vols = [sequence.at_time(t) for t in ctx["train_times"]]
            self._execute_single("classify", "train", ctx["train_key"], "json",
                                 _task_train_classifier,
                                 (train_vols, self._train_params()))
            train_artifact = self.store.get_json(ctx["train_key"])
        render_keys = [] if "render" in do else None
        for i, vol in enumerate(sequence):
            label = self._label(vol)
            if "classify" in do:
                self._execute_single(
                    "classify", label,
                    self._classify_step_key(ctx["train_key"], self._vdigests[i]),
                    "array",
                    _task_classify_step, (train_artifact, ctx["cparams"], vol))
            if "tfs" in do:
                self._execute_single(
                    "tfs", label,
                    self._tf_step_key(ctx["domain"], ctx["iatf_text"],
                                      self._vdigests[i]), "json",
                    _task_tf_step, (ctx["tparams"]["kind"], ctx["tparams"],
                                    ctx["domain"], ctx["iatf_dict"], vol))
            if "render" in do:
                tf_key = self._tf_step_key(ctx["domain"], ctx["iatf_text"],
                                           self._vdigests[i])
                tf_dict = self.store.get_json(tf_key)
                key = self._render_key(ctx, vol, tf_dict)
                self._execute_single("render", label, key, "array",
                                     _task_render_step,
                                     (vol, tf_dict, ctx["camera"], ctx["rparams"]))
                render_keys.append(key)
        return render_keys

    def _dataflow_pool(self, sequence) -> list[str] | None:
        """Overlapped walk on the run's resident pool.

        Each step's TF future carries a done-callback that submits that
        step's render the moment the TF lands, so renders of early steps
        run while classifies of late steps are still in flight.  Every
        completion persists in the parent — artifact first, manifest
        second — preserving the at-most-one-in-flight-task crash window.
        """
        ctx = self._dataflow_context(sequence)
        do = ctx["do"]
        pool = self._pool
        train_artifact = None
        if "classify" in do:
            train_vols = [sequence.at_time(t) for t in ctx["train_times"]]
            # Training gates every classify chain: a one-task barrier,
            # executed in-parent like the track stage.
            self._execute_single("classify", "train", ctx["train_key"], "json",
                                 _task_train_classifier,
                                 (train_vols, self._train_params()))
            train_artifact = self.store.get_json(ctx["train_key"])
        render_keys = [None] * len(sequence) if "render" in do else None
        classify_futs: list = []
        tf_futs: list = []
        render_futs: list = []

        def persist_cb(key, kind):
            def finish(fut):
                if fut.ok:
                    self._persist(key, kind, fut.value)
                    self._executed += 1
                    self._metrics.counter("run.tasks.executed").inc()
                    self._save_manifest()
            return finish

        def submit(stage, label, key, kind, fn, payload, bucket, chain=None):
            self.manifest.record_task(stage, label, key, kind)
            if self.store.has(key):
                self._skipped += 1
                self._metrics.counter("run.tasks.skipped").inc()
                self._save_manifest()
                return False
            self._save_manifest()
            fut = pool.submit(fn, payload, index=len(bucket),
                              injector=self._injector,
                              fault_index=self._task_no)
            self._task_no += 1
            fut.add_done_callback(persist_cb(key, kind))
            if chain is not None:
                fut.add_done_callback(chain)
            bucket.append(fut)
            return True

        def submit_render(i, vol, tf_dict):
            key = self._render_key(ctx, vol, tf_dict)
            render_keys[i] = key
            submit("render", self._label(vol), key, "array", _task_render_step,
                   (vol, tf_dict, ctx["camera"], ctx["rparams"]), render_futs)

        for i, vol in enumerate(sequence):
            label = self._label(vol)
            if "classify" in do:
                submit("classify", label,
                       self._classify_step_key(ctx["train_key"], self._vdigests[i]),
                       "array",
                       _task_classify_step, (train_artifact, ctx["cparams"], vol),
                       classify_futs)
            if "tfs" in do or "render" in do:
                tf_key = self._tf_step_key(ctx["domain"], ctx["iatf_text"],
                                           self._vdigests[i])
            chain = None
            if "render" in do:
                def chain(fut, i=i, vol=vol):
                    if fut.ok:
                        submit_render(i, vol, fut.value)
            if "tfs" in do:
                submitted = submit("tfs", label, tf_key, "json", _task_tf_step,
                                   (ctx["tparams"]["kind"], ctx["tparams"],
                                    ctx["domain"], ctx["iatf_dict"], vol),
                                   tf_futs, chain=chain)
                if not submitted and "render" in do:
                    # TF already satisfied — render directly from the store.
                    submit_render(i, vol, self.store.get_json(tf_key))
            elif "render" in do:
                submit_render(i, vol, self.store.get_json(tf_key))

        # Two waits: draining classify + TF fires every chain callback,
        # so all render futures exist before the second wait.
        pool.wait(classify_futs + tf_futs)
        pool.wait(render_futs)
        for fut in classify_futs + tf_futs + render_futs:
            if not fut.ok:
                raise TaskError(fut.failure)
        return render_keys

    def _persist(self, key: str, kind: str, result) -> None:
        if kind == "array":
            self.store.put_array(key, result)
        else:
            self.store.put_json(key, result)

    def _save_manifest(self) -> None:
        self.manifest.save(self.run_dir / "manifest.json")

    #: counter/timer prefixes exported to stats.json (subclasses extend)
    _stat_prefixes: tuple[str, ...] = ("run.",)

    def _write_stats(self) -> None:
        """Volatile run statistics — deliberately not part of bit-identity."""
        snapshot = self._metrics.snapshot()
        stats = {
            "executed": self._executed,
            "skipped": self._skipped,
            "counters": {k: v for k, v in snapshot["counters"].items()
                         if k.startswith(self._stat_prefixes)},
            "timers": {k: v for k, v in snapshot["timers"].items()
                       if k.startswith(self._stat_prefixes)},
        }
        atomic_write_text(self.run_dir / "stats.json",
                          json.dumps(stats, sort_keys=True, indent=2) + "\n")

    @staticmethod
    def _label(volume) -> str:
        return f"step:{int(volume.time):06d}"

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #
    def _train_params(self) -> dict:
        """Classify params that influence *training* (key material)."""
        p = self.config.classify
        return {k: p[k] for k in ("mask", "train_steps", "samples", "radius",
                                  "directions", "hidden", "epochs", "seed")}

    def _classify_train_key(self, sequence) -> str:
        params = self._train_params()
        train_times = params["train_steps"] or [sequence.times[0]]
        digests = [self._vdigests[sequence.times.index(t)] for t in train_times]
        return derive_key("classify.train", params, train_times, digests)

    def _classify_step_key(self, train_key: str, digest: str) -> str:
        # Addressed by the step's own digest (not its sequence position),
        # so a follower that has seen only part of the sequence derives
        # the same key the offline walk does.
        return derive_key("classify.step", train_key,
                          self.config.classify["mode"], digest)

    def _stage_classify(self, sequence) -> None:
        params = dict(self.config.classify)
        train_times = params["train_steps"] or [sequence.times[0]]
        missing = [t for t in train_times if t not in sequence.times]
        if missing:
            raise RunError(f"classify train_steps {missing} not in sequence "
                           f"times {sequence.times}")
        train_key = self._classify_train_key(sequence)
        train_vols = [sequence.at_time(t) for t in train_times]
        self._execute_batch("classify", [
            ("train", train_key, "json",
             _task_train_classifier, (train_vols, self._train_params())),
        ])
        artifact = self.store.get_json(train_key)
        self._execute_batch("classify", [
            (self._label(vol),
             self._classify_step_key(train_key, self._vdigests[i]), "array",
             _task_classify_step, (artifact, params, vol))
            for i, vol in enumerate(sequence)
        ])

    def _track_keys(self, sequence) -> tuple[str, list[str]]:
        params = self.config.track
        if params["criterion"] == "classify":
            train_key = self._classify_train_key(sequence)
            upstream = [self._classify_step_key(train_key, d)
                        for d in self._vdigests]
            upstream.append(f"threshold={self.config.classify['threshold']!r}")
        else:
            upstream = list(self._vdigests)
        base = derive_key("track", params, upstream)
        return base, [derive_key("track.step", base, self._label(vol))
                      for vol in sequence]

    def _stage_track(self, sequence) -> None:
        params = dict(self.config.track)
        base, step_keys = self._track_keys(sequence)
        labels = [self._label(vol) for vol in sequence]
        for label, key in zip(labels, step_keys):
            self.manifest.record_task("track", label, key, "array")
        self._save_manifest()
        if all(self.store.has(k) for k in step_keys):
            self._skipped += 1
            self._metrics.counter("run.tasks.skipped").inc()
            return
        if params["criterion"] == "classify":
            threshold = self.config.classify["threshold"]
            train_key = self._classify_train_key(sequence)
            criteria = np.stack([
                self.store.get_array(self._classify_step_key(train_key, d)) > threshold
                for d in self._vdigests
            ], axis=0)
        else:
            criteria = np.stack([
                (vol.data >= params["lo"]) & (vol.data <= params["hi"])
                for vol in sequence
            ], axis=0)
        seed = [int(v) for v in params["seed_voxel"]]
        if not 0 <= seed[0] < len(sequence):
            raise RunError(f"track seed step index {seed[0]} outside sequence "
                           f"of {len(sequence)} steps")
        # One growth task; its result shatters into per-step artifacts so
        # downstream consumers stream them individually.
        outcome = map_timesteps(_task_track, [(criteria, seed, params)],
                                backend="serial", inject_faults=self._injector,
                                fault_index_offset=self._task_no)
        self._task_no += 1
        self._executed += 1
        self._metrics.counter("run.tasks.executed").inc()
        grown = outcome.results[0]
        for key, step_mask in zip(step_keys, grown):
            self.store.put_array(key, step_mask)
        self._save_manifest()

    def _tf_domain(self, sequence) -> tuple[float, float]:
        """TF domain: the config's pinned ``tfs.domain`` when set, else the
        sequence's full value range.  Pinning makes TF keys (and bytes)
        independent of how much of the sequence exists yet — the contract
        follow mode relies on."""
        domain = self.config.tfs["domain"]
        if domain is not None:
            return (float(domain[0]), float(domain[1]))
        return sequence.value_range

    def _tf_step_key(self, domain, iatf_text: str | None, digest: str) -> str:
        params = self.config.tfs
        parts = ["tfs", params, list(domain)]
        if params["kind"] == "iatf":
            parts += [iatf_text, digest]
        return derive_key(*parts)

    def _stage_tfs(self, sequence) -> None:
        params = dict(self.config.tfs)
        domain = self._tf_domain(sequence)
        iatf_text = iatf_dict = None
        if params["kind"] == "iatf":
            try:
                iatf_text = Path(params["iatf"]).read_text()
            except OSError as exc:
                raise RunError(f"cannot read IATF {params['iatf']}: {exc}") from None
            iatf_dict = json.loads(iatf_text)
        self._execute_batch("tfs", [
            (self._label(vol),
             self._tf_step_key(domain, iatf_text, self._vdigests[i]), "json",
             _task_tf_step, (params["kind"], params, domain, iatf_dict, vol))
            for i, vol in enumerate(sequence)
        ])

    def _stage_render(self, sequence) -> None:
        params = dict(self.config.render)
        camera = Camera(azimuth=params["azimuth"], elevation=params["elevation"],
                        width=params["size"], height=params["size"])
        fast_opts = dict(params["fast_options"])
        sig = ("exact" if params["mode"] == "exact"
               else f"fast:{sorted(fast_opts.items())!r}")
        domain = self._tf_domain(sequence)
        iatf_text = (Path(self.config.tfs["iatf"]).read_text()
                     if self.config.tfs["kind"] == "iatf" else None)
        tasks = []
        for i, vol in enumerate(sequence):
            tf_key = self._tf_step_key(domain, iatf_text, self._vdigests[i])
            tf_dict = self.store.get_json(tf_key)
            tf = TransferFunction1D.from_dict(tf_dict)
            # The render key *is* the frame digest — the same content key
            # render_sequence's frame cache uses, reused verbatim here.
            key = frame_digest(vol, tf, camera, params["step"],
                               params["shading"], sig)
            tasks.append((self._label(vol), key, "array",
                          _task_render_step, (vol, tf_dict, camera, params)))
        self._execute_batch("render", tasks)
        if params["export"]:
            self._export_frames(sequence, [k for _, k, _, _, _ in tasks],
                                params["export"])

    def _export_frames(self, sequence, keys: list[str], fmt: str) -> None:
        """Idempotently materialize stored pixel artifacts as image files."""
        outdir = self.run_dir / "frames"
        for vol, key in zip(sequence, keys):
            image = Image.from_array(self.store.get_array(key))
            if fmt == "png":
                image.save_png(outdir / f"frame_{int(vol.time):06d}.png")
            else:
                image.save_ppm(outdir / f"frame_{int(vol.time):06d}.ppm")
