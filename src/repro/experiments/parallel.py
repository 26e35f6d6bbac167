"""Process-pool parallel execution backend for experiment sweeps.

Every quantitative result in the paper (Figure 2's evolution traces,
Figure 3's λ–γ phase diagram, the finite-size scaling study) reduces to
the same shape of work: run the separation chain from a fixed initial
configuration for a fixed number of steps under fixed ``(λ, γ)`` — once
per grid cell per replica.  Those cells are embarrassingly parallel, so
this module factors the execution out of the individual harnesses:

* :class:`CellTask` — one self-contained unit of work: the biases, the
  replica index, a *derived integer seed*, the step budget, optional
  intermediate snapshot checkpoints, and the initial configuration
  serialized with order-preserving JSON (dict order determines the
  chain's particle indexing, so an order-preserving round trip makes a
  worker's trajectory bit-identical to an in-process run).
* :func:`run_cell` — the worker entrypoint.  Importable at module top
  level so ``ProcessPoolExecutor`` can ship it to workers; it speaks
  payload dicts whose configurations travel either as binary columnar
  blobs (:mod:`repro.util.codec`, the default) or as plain JSON
  strings (see :mod:`repro.util.serialization`) rather than live
  objects.
* :func:`execute_cells` — fan tasks out over a ``serial`` or ``process``
  backend, optionally writing one checkpoint file per completed cell
  (``cell-<key>.bin`` columnar or ``cell-<key>.json`` legacy text, the
  ``codec`` knob; resume reads either) and, with ``resume=True``,
  skipping cells whose checkpoints are already on disk — a killed
  sweep re-run with ``--resume`` completes only the missing cells.

The engine itself is tuned for paper-scale sweeps: worker processes
pre-decode shared base systems once (pool initializer + per-worker
cache), task identity digests are memoized, and a ``steps × n`` cost
model (:mod:`repro.experiments.costmodel`, refined online) dispatches
cells longest-expected-first from a bounded in-flight window, packing
the cheap tail into chunks (``run_cell_chunk``).  None of this touches
trajectories — scheduling order, chunking, and codec are all outside
task identity.

Because each task carries its own deterministically derived seed (see
:func:`repro.util.rng.derive_seed`), the two backends produce identical
results for the same inputs; the test suite asserts this cell by cell.

Observability (:mod:`repro.obs`) threads through both backends: pass an
:class:`repro.obs.Instrumentation` to :func:`execute_cells` and workers
buffer structured log events, chain metrics, and pid-tagged trace spans
inside their result payloads; the parent merges the streams, counts
checkpoint hits/misses/recomputes, and records per-cell wall-time and
throughput.  Instrumentation is excluded from task identity and
stripped from checkpoint files, so instrumented and uninstrumented
sweeps are interchangeable on disk and bit-identical in trajectory.

Fault tolerance (:mod:`repro.experiments.resilience`) threads through
the same way: a :class:`~repro.experiments.resilience.RetryPolicy` and
:class:`~repro.experiments.resilience.FailurePolicy` control per-cell
retries with backoff, a per-task timeout watchdog, bounded process-pool
rebuilds on ``BrokenProcessPool``, and — under ``quarantine`` — partial
completion with :class:`~repro.experiments.resilience.FailedCell`
placeholders plus a ``failures.json`` manifest in the checkpoint dir.
Because retried cells re-run identical payloads with identical derived
seeds, a sweep that survives worker crashes is bit-identical to an
undisturbed one.

Preemption safety extends that guarantee *inside* a cell: with
``state_every > 0`` workers periodically persist a crash-consistent
``cell-<key>.state.bin`` snapshot (configuration, chain/kernel
counters, RNG state, streaming-diagnostics state — see
:func:`repro.util.codec.encode_state`), a retried or resumed cell
warm-restores from it and replays only the missing tail (bit-identical
to an uninterrupted run at the same snapshot cadence), SIGTERM/SIGINT
drain in-flight cells to their last durable snapshot and leave a
resumable ``drain.json`` manifest, and per-unit heartbeat files let
the supervisor tell live-but-slow workers from silently dead ones.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace as dataclass_replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.separation_chain import CHAIN_BACKENDS, SeparationChain
from repro.experiments.costmodel import CostModel, plan_ladder
from repro.experiments.resilience import (
    DrainInterrupt,
    DrainRequested,
    FailedCell,
    FailurePolicy,
    ResilientExecutor,
    ResultValidationError,
    RetryPolicy,
    TaskFailure,
    WorkUnit,
    clear_drain_manifest,
    clear_failures_manifest,
    corrupt_batch_payloads,
    corrupt_result_payload,
    drain_event,
    drain_requested,
    fault_after_snapshots,
    fire_fault,
    inject_preemptive_fault,
    install_drain_handlers,
    plan_fault,
    reset_drain,
    restore_drain_handlers,
    write_drain_manifest,
    write_failures_manifest,
)
from repro.obs import (
    ChainDiagnostics,
    DiagnosticsConfig,
    Instrumentation,
    JsonLogger,
    MetricsRegistry,
    ReplicaSetDiagnostics,
    StopCondition,
    TraceRecorder,
    merge_records,
    run_profiled,
)
from repro.obs.convergence import STOP_BUDGET, STOP_MAX_ITERATIONS
from repro.system.configuration import ParticleSystem
from repro.util import codec as binary_codec
from repro.util.serialization import (
    configuration_from_json,
    configuration_to_json,
    load_payload,
    save_bytes,
    save_payload,
    sweep_stale_temp_files,
)

#: Execution backends understood by :func:`execute_cells`.
BACKENDS = ("serial", "process")

#: Transport/checkpoint codecs understood by the engine.  ``"binary"``
#: (the default) ships configurations as packed columnar blobs (see
#: :mod:`repro.util.codec`) and writes ``cell-<key>.bin`` checkpoints;
#: ``"json"`` is the legacy text path.  Both read sides fall back to
#: the other format, so a sweep can switch codecs mid-life and still
#: resume its old checkpoints.
CODECS = ("binary", "json")
DEFAULT_CODEC = "binary"

#: Checkpoint filename suffix per codec.
_CODEC_SUFFIX = {"binary": ".bin", "json": ".json"}

#: Scheduling policies: ``"cost"`` orders work longest-expected-first
#: via :class:`repro.experiments.costmodel.CostModel` (refined online)
#: and chunks cheap cells; ``"fifo"`` preserves task order.
SCHEDULES = ("cost", "fifo")

#: Pool oversubscription factor used when sizing adaptive chunks: aim
#: for at least this many work units per worker so the online cost
#: model keeps enough scheduling freedom to absorb bad estimates.
_CHUNK_OVERSUBSCRIPTION = 4

#: Hard cap on adaptive chunk size (``chunk=0``); explicit ``chunk=k``
#: overrides it.
_CHUNK_CAP = 16

#: Warm-start strategies understood by :func:`dispatch_cells`:
#: ``"off"`` runs every cell cold from its own initial configuration;
#: ``"ladder"`` schedules the (λ, γ) grid as a dependency DAG of
#: anti-diagonal waves and seeds each cell from the equilibrated final
#: configuration of its nearest already-finished neighbor (see
#: :func:`repro.experiments.costmodel.plan_ladder`).
WARM_STARTS = ("off", "ladder")

#: Schema version of the per-cell checkpoint payloads.
CHECKPOINT_VERSION = 1

#: Callback signature: ``progress(index, total, result)`` after each cell.
ProgressCallback = Callable[[int, int, "CellResult"], None]


@lru_cache(maxsize=128)
def _system_digest(system_json: str) -> str:
    """sha256 of a serialized configuration, cached per unique string.

    Harnesses share one ``system_json`` across every cell of a sweep,
    so this collapses thousands of digest computations into one.
    """
    return hashlib.sha256(system_json.encode()).hexdigest()


@lru_cache(maxsize=32)
def _encoded_system(system_json: str) -> bytes:
    """Binary transport blob for a task's initial configuration.

    Cached per unique JSON string: the parent encodes each distinct
    initial configuration once per sweep, not once per task.
    """
    return binary_codec.encode_configuration(
        configuration_from_json(system_json)
    )


@dataclass(frozen=True)
class CellTask:
    """One sweep cell: a fully self-contained chain run.

    ``checkpoints`` lists iteration counts (strictly increasing, each
    ``<= steps``) at which the worker snapshots the configuration; the
    final configuration after ``steps`` iterations is always returned.
    ``label`` is free-form metadata for reporting and does not affect
    the task identity (it is excluded from :meth:`key`).  ``kernel``
    selects the chain's step kernel (``"auto"``/``"grid"``/``"dict"``/
    ``"batch"``, see
    :class:`repro.core.separation_chain.SeparationChain`); the scalar
    kernels are bit-identical in trajectory, so — like ``label`` — it
    rides *outside* the task identity and checkpoints written under one
    kernel resume cleanly under another.  ``"batch"`` is a distinct RNG
    regime (statistically, not bit-wise, equivalent); its checkpoints
    are still valid chain samples, so cross-kernel resume remains
    sound for ensemble statistics.

    ``warm_parent`` records warm-start provenance: the :meth:`key` of
    the finished neighbor cell whose equilibrated final configuration
    became this task's ``system_json``.  Like ``label`` it is metadata
    and rides outside :meth:`key` — the *configuration itself* is what
    matters for identity, and it is already covered by the system
    digest, so a stale or changed parent produces a different digest
    and therefore a different checkpoint key automatically.
    """

    lam: float
    gamma: float
    replica: int
    seed: int
    steps: int
    swaps: bool = True
    system_json: str = ""
    checkpoints: Tuple[int, ...] = ()
    label: str = ""
    kernel: str = "auto"
    warm_parent: str = ""

    def key(self) -> str:
        """Stable identity digest used to name checkpoint files.

        Covers every field that affects the trajectory (including a
        digest of the initial configuration), so resuming against a
        checkpoint directory written by a *different* sweep recomputes
        rather than silently reusing stale cells.  ``kernel`` is
        deliberately excluded: the grid and dict kernels are
        trajectory-identical, so cells checkpointed before the grid
        kernel existed stay valid under it (and vice versa).

        The digest is memoized per instance (the dataclass is frozen,
        so it can never go stale) and the inner configuration digest is
        shared across tasks via :func:`_system_digest` — ``key()`` used
        to re-hash the full configuration JSON on every call, and the
        engine calls it for checkpoint paths, grouping, scheduling, and
        logging alike.
        """
        cached = getattr(self, "_key_cache", None)
        if cached is not None:
            return cached
        blob = "|".join(
            [
                repr(self.lam),
                repr(self.gamma),
                str(self.replica),
                str(self.seed),
                str(self.steps),
                str(int(self.swaps)),
                ",".join(str(c) for c in self.checkpoints),
                _system_digest(self.system_json),
            ]
        ).encode()
        key = hashlib.sha256(blob).hexdigest()[:24]
        object.__setattr__(self, "_key_cache", key)
        return key

    def validate(self) -> None:
        """Raise ``ValueError`` on malformed tasks before any fan-out."""
        if not self.system_json:
            raise ValueError("task is missing its initial configuration")
        if self.kernel not in CHAIN_BACKENDS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {CHAIN_BACKENDS}"
            )
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        previous = -1
        for checkpoint in self.checkpoints:
            if checkpoint <= previous:
                raise ValueError(
                    f"checkpoints must be strictly increasing, got "
                    f"{self.checkpoints}"
                )
            previous = checkpoint
        if self.checkpoints and self.checkpoints[-1] > self.steps:
            raise ValueError(
                f"checkpoint {self.checkpoints[-1]} exceeds steps {self.steps}"
            )


@dataclass
class CellResult:
    """Outcome of one cell: final system, snapshots, and chain counters.

    ``wall_time`` is the worker-measured execution time in seconds
    (zero for legacy checkpoints written before it was recorded);
    ``profile`` carries the cProfile report text when per-cell
    profiling was requested; ``diag`` carries the worker's streaming
    convergence summary (:mod:`repro.obs.convergence`) when a
    ``diag_every`` stride was requested — ``None`` otherwise, and for
    results restored from checkpoints (diagnostics ride outside the
    checkpoint schema).

    Adaptive runs additionally record stop metadata (persisted in the
    checkpoint header, defaulting to ``None`` for fixed-budget runs
    and legacy checkpoints): ``stop_reason`` (a
    :mod:`repro.obs.convergence` ``STOP_*`` constant), ``ess_at_stop``
    (worst-stream ESS when the cell stopped), ``budget_steps`` (the
    fixed budget the run was capped by — ``iterations < budget_steps``
    measures the savings), and warm-start provenance
    (``warm_parent``/``warm_digest``).

    ``restored_from`` records mid-run durability provenance: the
    iteration count at which the worker warm-restored this cell from a
    ``cell-<key>.state.bin`` snapshot (after a crash, preemption, or
    drain), or ``None`` for cells computed in one uninterrupted pass.
    """

    task: CellTask
    system: ParticleSystem
    snapshots: List[ParticleSystem] = field(default_factory=list)
    iterations: int = 0
    accepted_moves: int = 0
    accepted_swaps: int = 0
    from_checkpoint: bool = False
    wall_time: float = 0.0
    profile: Optional[str] = None
    diag: Optional[Dict[str, Any]] = None
    stop_reason: Optional[str] = None
    ess_at_stop: Optional[float] = None
    budget_steps: Optional[int] = None
    warm_parent: Optional[str] = None
    warm_digest: Optional[str] = None
    restored_from: Optional[int] = None


#: Side-channel payload keys (observability and fault injection):
#: stripped before checkpointing so instrumented, fault-injected, and
#: plain sweeps all write identical checkpoints.
_OBS_PAYLOAD_KEYS = (
    "events",
    "trace_events",
    "metrics",
    "profile",
    "instrument",
    "fault",
    "diag",
)


def task_payload(
    task: CellTask,
    instrument: Optional[Dict[str, bool]] = None,
    codec: str = "json",
    adaptive: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The payload shipped to worker processes for ``task``.

    ``instrument`` is the optional observability request (see
    :meth:`repro.obs.Instrumentation.worker_flags`); it rides outside
    the task identity, so instrumentation never changes checkpoint
    keys or trajectories.

    ``codec`` picks the configuration transport: ``"json"`` (the
    legacy payload, byte-for-byte unchanged) or ``"binary"`` — the
    initial system ships as a packed columnar blob plus its digest
    (the warm-worker cache key), and the worker is asked to return
    blobs in kind.  The codec rides outside the task identity too.

    ``adaptive`` is the optional adaptive-termination request (see
    :func:`adaptive_flags`): a :class:`~repro.obs.StopCondition`
    payload plus the diagnostics stride.  Like ``instrument`` it rides
    outside the task identity — an adaptive run that completes its
    full budget writes a checkpoint a fixed-budget run can resume, and
    vice versa.  Warm-start provenance (``warm_parent`` plus the
    digest of the inherited configuration) is forwarded so the worker
    can echo it into the result payload for the checkpoint header.
    """
    payload = {
        "key": task.key(),
        "lam": task.lam,
        "gamma": task.gamma,
        "replica": task.replica,
        "seed": task.seed,
        "steps": task.steps,
        "swaps": task.swaps,
        "system": task.system_json,
        "checkpoints": list(task.checkpoints),
        "label": task.label,
        "kernel": task.kernel,
    }
    if codec == "binary":
        payload["codec"] = "binary"
        payload["system"] = _encoded_system(task.system_json)
        payload["system_digest"] = _system_digest(task.system_json)
    if task.warm_parent:
        payload["warm_parent"] = task.warm_parent
        payload["warm_digest"] = _system_digest(task.system_json)
    if adaptive:
        payload["adaptive"] = dict(adaptive)
    if instrument:
        payload["instrument"] = dict(instrument)
    return payload


def adaptive_flags(
    adaptive: Optional[StopCondition], obs: Optional[Instrumentation]
) -> Optional[Dict[str, Any]]:
    """The JSON-able adaptive request shipped to workers, or ``None``.

    Bundles the stop condition's payload with the diagnostics sampling
    stride the worker should run at: an explicit ``obs.diag_every``
    wins (diagnostics are then shared between reporting and
    termination); otherwise the default
    :class:`~repro.obs.DiagnosticsConfig` stride applies.
    """
    if adaptive is None:
        return None
    flags = adaptive.to_payload()
    stride = obs.diag_every if obs is not None else 0
    flags["stride"] = int(stride) if stride > 0 else DiagnosticsConfig().stride
    return flags


# ---------------------------------------------------------------------------
# Warm workers: per-process base-system cache
# ---------------------------------------------------------------------------

#: Per-worker decoded base systems, keyed by configuration digest.
#: Sweeps run every cell from a handful of initial configurations, so
#: each worker decodes a given base once and hands out cheap copies.
_BASE_SYSTEM_CACHE: "OrderedDict[str, ParticleSystem]" = OrderedDict()
_BASE_SYSTEM_CACHE_LIMIT = 8


def _decode_system_any(data: Any) -> ParticleSystem:
    """Decode a configuration from either transport representation."""
    if isinstance(data, (bytes, bytearray)):
        return binary_codec.decode_configuration(bytes(data))
    return configuration_from_json(data)


def _base_system(payload: Dict[str, Any]) -> Tuple[ParticleSystem, bool]:
    """The payload's initial system (a private copy) and cache-hit flag.

    Copies preserve dict insertion order and the incremental counters,
    so a cached decode is trajectory-identical to a fresh one.
    """
    data = payload["system"]
    digest = payload.get("system_digest")
    if digest is None:
        raw = data if isinstance(data, (bytes, bytearray)) else data.encode()
        digest = hashlib.sha256(raw).hexdigest()
    cached = _BASE_SYSTEM_CACHE.get(digest)
    if cached is not None:
        _BASE_SYSTEM_CACHE.move_to_end(digest)
        return cached.copy(), True
    system = _decode_system_any(data)
    _BASE_SYSTEM_CACHE[digest] = system
    while len(_BASE_SYSTEM_CACHE) > _BASE_SYSTEM_CACHE_LIMIT:
        _BASE_SYSTEM_CACHE.popitem(last=False)
    return system.copy(), False


def warm_worker(entries: Sequence[Tuple[str, Any]]) -> None:
    """Process-pool initializer: pre-decode base systems once per worker.

    ``entries`` pairs configuration digests with their encoded forms
    (blob or JSON).  Failures are swallowed — a bad entry surfaces as
    a normal per-task decode error later instead of killing the worker
    at startup (which would read as an opaque ``BrokenProcessPool``).
    """
    for digest, data in entries:
        try:
            _BASE_SYSTEM_CACHE[digest] = _decode_system_any(data)
        except Exception:
            continue
    while len(_BASE_SYSTEM_CACHE) > _BASE_SYSTEM_CACHE_LIMIT:
        _BASE_SYSTEM_CACHE.popitem(last=False)


def _warm_entries(
    payloads: Iterable[Dict[str, Any]],
) -> List[Tuple[str, Any]]:
    """Distinct (digest, encoded system) pairs for :func:`warm_worker`."""
    entries: "OrderedDict[str, Any]" = OrderedDict()
    for payload in payloads:
        for member in payload.get("cells") or (payload,):
            digest = member.get("system_digest")
            if digest is not None and digest not in entries:
                entries[digest] = member["system"]
            if len(entries) >= _BASE_SYSTEM_CACHE_LIMIT:
                return list(entries.items())
    return list(entries.items())


#: Seconds between heartbeat-file touches in workers.
_HEARTBEAT_INTERVAL = 2.0


class _HeartbeatWriter:
    """Daemon thread that touches a per-unit liveness file periodically.

    The parent's executor watches the file's mtime: a worker that is
    alive but slow keeps beating, while one killed by SIGKILL/OOM — or
    hung before its first beat — goes silent and trips the
    ``heartbeat_grace`` watchdog (see
    :class:`repro.experiments.resilience.ResilientExecutor`).  Touches
    are tiny unsynced writes on a side thread, so they never perturb
    the measured cell wall time.
    """

    def __init__(self, path: str, interval: float = _HEARTBEAT_INTERVAL):
        self._path = path
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def start(self) -> "_HeartbeatWriter":
        self._touch()
        self._thread.start()
        return self

    def _touch(self) -> None:
        try:
            with open(self._path, "w") as handle:
                handle.write(str(os.getpid()))
        except OSError:
            pass

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            self._touch()

    def stop(self) -> None:
        self._stop.set()
        try:
            os.unlink(self._path)
        except OSError:
            pass


def _start_heartbeat(path: Optional[str]) -> Optional[_HeartbeatWriter]:
    """Start a heartbeat writer for ``path`` (``None`` disables)."""
    if not path:
        return None
    return _HeartbeatWriter(path).start()


def run_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entrypoint: execute one cell payload, return a result payload.

    Module-level (picklable) by design.  Rebuilds the initial
    configuration from its order-preserving JSON, runs the chain with
    the task's derived seed, snapshots at each requested checkpoint,
    and serializes everything back to plain JSON-able data.

    When the payload carries an ``instrument`` request the worker
    builds *local* buffering instruments (list-sink logger, its own
    metrics registry and trace recorder — trace events tagged with the
    worker's pid) and returns their contents in the result payload for
    the parent to merge.  A ``profile`` request wraps the whole cell in
    cProfile and attaches the report text.

    Fault injection (a ``fault`` payload key or the
    :data:`repro.experiments.resilience.FAULT_ENV` environment
    variable) can crash, kill, hang, or corrupt this worker for chaos
    testing; like ``instrument`` it rides outside the task identity.
    """
    fault = plan_fault(payload, payload["key"], payload.get("label", ""))
    inject_preemptive_fault(fault)
    # The heartbeat starts *after* preemptive fault injection so a
    # preemptive hang leaves the file never written — exactly the
    # silent-death signature the supervisor watches for.
    heartbeat = _start_heartbeat(payload.get("heartbeat"))
    try:
        instrument = payload.get("instrument") or {}
        if instrument.get("profile"):
            result, profile_text = run_profiled(
                _run_cell_body, payload, instrument, fault
            )
            result["profile"] = profile_text
            return corrupt_result_payload(fault, result)
        return corrupt_result_payload(
            fault, _run_cell_body(payload, instrument, fault)
        )
    finally:
        if heartbeat is not None:
            heartbeat.stop()


def run_cell_chunk(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Worker entrypoint: run several cheap cells in one dispatch.

    The cost-model scheduler packs cells whose expected runtime is
    small relative to the sweep into chunks, amortizing process-pool
    round trips and IPC over several cells.  Each member payload runs
    through :func:`run_cell` unchanged (own seed, own fault plan, own
    instrumentation buffers), and the results come back as one list in
    member order — the same worker-side shape as a batch group, and
    like a batch group the retry/timeout/quarantine policies apply to
    the chunk as a unit.  Chunking therefore never affects
    trajectories, only scheduling granularity.
    """
    heartbeat = _start_heartbeat(payload.get("heartbeat"))
    try:
        return [run_cell(cell) for cell in payload["cells"]]
    finally:
        if heartbeat is not None:
            heartbeat.stop()


def _plan_chunks(
    task_list: Sequence[CellTask],
    pending: Sequence[int],
    model: CostModel,
    workers: int,
    chunk: int,
) -> List[List[int]]:
    """Group pending task indices into scheduling units, longest first.

    Cells whose a-priori cost clears the chunking threshold stay
    singletons; the cheap tail is packed greedily into chunks bounded
    by both a unit budget (the sweep's total divided across
    ``workers × oversubscription`` slots) and a size cap.  ``chunk=1``
    disables packing, ``chunk>=2`` overrides the cap, ``chunk=0`` is
    adaptive.  The grouping is a pure function of task costs — no
    clocks, no randomness — so reruns plan identically.
    """
    units = {index: model.units(task_list[index]) for index in pending}
    order = sorted(pending, key=lambda index: (-units[index], index))
    if chunk == 1 or len(pending) <= 1:
        return [[index] for index in order]
    cap = chunk if chunk >= 2 else _CHUNK_CAP
    target = sum(units.values()) / max(
        1.0, float(workers * _CHUNK_OVERSUBSCRIPTION)
    )
    threshold = target * 0.5
    groups: List[List[int]] = []
    current: List[int] = []
    current_units = 0.0
    for index in order:
        if units[index] >= threshold:
            groups.append([index])
            continue
        current.append(index)
        current_units += units[index]
        if len(current) >= cap or current_units >= target:
            groups.append(current)
            current, current_units = [], 0.0
    if current:
        groups.append(current)
    return groups


def _restore_cell_state(
    payload: Dict[str, Any],
    state: Dict[str, Any],
    chain: SeparationChain,
    diag: Optional[ChainDiagnostics],
    diag_every: int,
    state_every: int,
) -> List[Any]:
    """Validate + apply a decoded scalar state snapshot; return snapshots.

    Raises ``ValueError`` on any mismatch (wrong cell, wrong cadence,
    different diagnostics setup, inconsistent snapshot inventory) so
    the caller can rebuild cold — never resume from the wrong state.
    """
    if state.get("kind") != "cell-state":
        raise ValueError(
            f"expected a cell-state frame, got {state.get('kind')!r}"
        )
    if state.get("key") != payload["key"]:
        raise ValueError("state snapshot key does not match this task")
    if int(state.get("state_every") or 0) != state_every:
        raise ValueError("state snapshot cadence does not match this run")
    if bool(state.get("has_diag")) != (diag is not None) or (
        diag is not None and int(state.get("stride") or 0) != diag_every
    ):
        raise ValueError(
            "state snapshot diagnostics setup does not match this run"
        )
    chain.restore_state(state["chain"])
    if diag is not None:
        diag.restore_state(state["diag"])
    done = [c for c in payload["checkpoints"] if c <= chain.iterations]
    saved = list(state["items"][1:])
    if len(saved) == len(done):
        return saved
    if len(saved) == len(done) - 1 and done[-1] == chain.iterations:
        # The snapshot landed exactly on a checkpoint boundary, before
        # the worker appended that checkpoint's blob; the restored
        # configuration *is* that checkpoint state, so regenerate it.
        return saved + [None]  # caller fills with its own encoder
    raise ValueError(
        f"state snapshot carries {len(saved)} checkpoint blobs "
        f"but {len(done)} checkpoints precede iteration {chain.iterations}"
    )


def _run_cell_body(
    payload: Dict[str, Any],
    instrument: Dict[str, Any],
    fault: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    context = {
        "cell": payload["key"],
        "lam": payload["lam"],
        "gamma": payload["gamma"],
        "replica": payload["replica"],
        "label": payload["label"],
    }
    logger = (
        JsonLogger.collecting(context=context)
        if instrument.get("events")
        else None
    )
    metrics = MetricsRegistry() if instrument.get("metrics") else None
    trace = (
        TraceRecorder(process_name="repro-worker")
        if instrument.get("trace")
        else None
    )

    wall_start = time.perf_counter()
    cell_span_start = trace.now() if trace is not None else 0.0
    if logger is not None:
        logger.debug("cell.start", steps=payload["steps"])

    codec = payload.get("codec", "json")
    adaptive = payload.get("adaptive") or None
    diag_every = int(instrument.get("diag_every") or 0)
    if adaptive and diag_every <= 0:
        # Adaptive termination needs streaming diagnostics even when no
        # explicit observability stride was requested.
        diag_every = int(adaptive.get("stride") or 0) or DiagnosticsConfig().stride

    cache_counted = False

    def build(
        initial: Optional[ParticleSystem] = None,
    ) -> Tuple[ParticleSystem, SeparationChain, Optional[ChainDiagnostics]]:
        nonlocal cache_counted
        if initial is None:
            system, cache_hit = _base_system(payload)
            if metrics is not None and not cache_counted:
                cache_counted = True
                name = (
                    "engine.system_cache_hits"
                    if cache_hit
                    else "engine.system_cache_misses"
                )
                metrics.counter(name).inc()
        else:
            system = initial
        chain = SeparationChain(
            system,
            lam=payload["lam"],
            gamma=payload["gamma"],
            swaps=payload["swaps"],
            seed=payload["seed"],
            # Older payloads (pre-kernel) default to "auto"; either way
            # the trajectory is identical, only the throughput differs.
            backend=payload.get("kernel", "auto"),
        )
        diag = None
        if diag_every > 0:
            diag = ChainDiagnostics(
                DiagnosticsConfig(stride=diag_every),
                metrics=metrics,
                logger=logger,
                trace=trace,
                label=payload["label"] or payload["key"],
            )
        if (
            logger is not None
            or metrics is not None
            or trace is not None
            or diag is not None
        ):
            chain.instrument(
                metrics=metrics, trace=trace, logger=logger, diagnostics=diag
            )
        return system, chain, diag

    system, chain, diag = build()
    if codec == "binary":
        def encode(current_system: ParticleSystem) -> Any:
            return binary_codec.encode_configuration(current_system)
    else:
        def encode(current_system: ParticleSystem) -> Any:
            return configuration_to_json(current_system, sort_nodes=False)

    state_path = payload.get("state_path")
    state_every = int(payload.get("state_every") or 0)
    snapshots: List[Any] = []
    restored_from: Optional[int] = None
    if state_path and os.path.exists(state_path):
        # Warm restore: resume mid-cell from the last durable snapshot.
        # Any defect — corruption, a snapshot from a different task or
        # cadence — falls back to a cold start, the same posture the
        # checkpoint loader takes toward unusable checkpoints.
        try:
            state = binary_codec.decode_state(Path(state_path).read_bytes())
            restored_system = _decode_system_any(state["items"][0])
            system, chain, diag = build(restored_system)
            saved = _restore_cell_state(
                payload, state, chain, diag, diag_every, state_every
            )
            snapshots = [
                blob if blob is not None else encode(system)
                for blob in saved
            ]
            restored_from = chain.iterations
            if logger is not None:
                logger.info(
                    "cell.warm_restore", iteration=restored_from
                )
        except (ValueError, KeyError, TypeError, IndexError, OSError) as error:
            warnings.warn(
                f"ignoring unusable state snapshot "
                f"{Path(state_path).name}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
            snapshots = []
            restored_from = None
            system, chain, diag = build()

    if state_path and state_every > 0:
        emitted = 0
        deferred = fault_after_snapshots(fault)

        def state_hook(ch: SeparationChain) -> None:
            nonlocal emitted
            frame: Dict[str, Any] = {
                "kind": "cell-state",
                "key": payload["key"],
                "state_every": state_every,
                "codec": codec,
                "iterations": ch.iterations,
                "chain": ch.export_state(),
                "has_diag": diag is not None,
                "stride": diag_every,
                "items": [binary_codec.encode_configuration(ch.system)]
                + list(snapshots),
            }
            if diag is not None:
                frame["diag"] = diag.state_payload()
            save_bytes(binary_codec.encode_state(frame), state_path)
            emitted += 1
            if metrics is not None:
                metrics.counter("engine.state_snapshots").inc()
            if deferred and emitted == deferred:
                fire_fault(fault)
            if drain_requested():
                raise DrainRequested(
                    f"cell {payload['key']} drained at "
                    f"iteration {ch.iterations}"
                )

        chain.set_state_hook(state_hook, state_every)

    current = chain.iterations
    for index, checkpoint in enumerate(payload["checkpoints"]):
        if index < len(snapshots):
            # Already materialized from the restored state snapshot.
            current = max(current, checkpoint)
            continue
        chain.run(checkpoint - current)
        current = checkpoint
        snapshots.append(encode(system))
    current = max(current, chain.iterations)
    stop_reason = None
    if adaptive:
        # Adaptive termination engages only on the final segment, after
        # every requested snapshot exists — the snapshot-count contract
        # of the checkpoint schema is preserved unconditionally.  The
        # stop-check schedule is anchored to absolute iteration counts,
        # so a warm-restored chain resumes the exact cadence of the
        # uninterrupted run.
        stop = StopCondition.from_payload(adaptive)
        stop_reason = chain.run_until(payload["steps"] - current, stop)
    else:
        chain.run(payload["steps"] - current)
    wall_time = time.perf_counter() - wall_start

    result = {
        "version": CHECKPOINT_VERSION,
        "key": payload["key"],
        "snapshots": snapshots,
        "final": encode(system),
        "iterations": chain.iterations,
        "accepted_moves": chain.accepted_moves,
        "accepted_swaps": chain.accepted_swaps,
        "wall_time": wall_time,
    }
    if restored_from is not None:
        result["restored_from"] = restored_from
    summary = diag.summary() if diag is not None else None
    if stop_reason is not None:
        result["stop_reason"] = stop_reason
        result["budget_steps"] = payload["steps"]
        result["ess_at_stop"] = (summary or {}).get("ess")
    if payload.get("warm_parent"):
        result["warm_parent"] = payload["warm_parent"]
        result["warm_digest"] = payload.get("warm_digest")
    if trace is not None:
        trace.complete("cell", cell_span_start, **context)
        result["trace_events"] = trace.events
    if logger is not None:
        logger.debug(
            "cell.end", seconds=wall_time, iterations=chain.iterations
        )
        result["events"] = logger.records
    if metrics is not None:
        result["metrics"] = metrics.snapshot()
    if diag is not None:
        result["diag"] = summary
    return result


class LazySnapshots(Sequence):
    """Snapshot list that decodes configurations on first access.

    Resume paths usually touch only a result's summary fields (or its
    final system); eagerly rebuilding every intermediate snapshot of a
    snapshot-heavy sweep wastes most of the load time.  This sequence
    keeps the still-encoded blobs and materializes each
    :class:`ParticleSystem` the first time it is indexed, caching it
    thereafter — iteration and ``len`` behave exactly like the eager
    list did.  Binary items were CRC-validated at load time, so a lazy
    decode can only fail if memory is corrupted after the fact.
    """

    def __init__(self, items: Sequence[Any]):
        self._items: List[Any] = list(items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        item = self._items[index]
        if not isinstance(item, ParticleSystem):
            item = _decode_system_any(item)
            self._items[index] = item
        return item


def _decode_result(
    task: CellTask, payload: Dict[str, Any], from_checkpoint: bool = False
) -> CellResult:
    return CellResult(
        task=task,
        system=_decode_system_any(payload["final"]),
        snapshots=LazySnapshots(payload["snapshots"]),
        iterations=int(payload["iterations"]),
        accepted_moves=int(payload["accepted_moves"]),
        accepted_swaps=int(payload["accepted_swaps"]),
        from_checkpoint=from_checkpoint,
        wall_time=float(payload.get("wall_time", 0.0)),
        profile=payload.get("profile"),
        diag=payload.get("diag"),
        stop_reason=payload.get("stop_reason"),
        ess_at_stop=payload.get("ess_at_stop"),
        budget_steps=(
            int(payload["budget_steps"])
            if payload.get("budget_steps") is not None
            else None
        ),
        warm_parent=payload.get("warm_parent"),
        warm_digest=payload.get("warm_digest"),
        restored_from=(
            int(payload["restored_from"])
            if payload.get("restored_from") is not None
            else None
        ),
    )


#: Keys a well-formed result payload must carry (checkpoint schema).
_RESULT_PAYLOAD_KEYS = (
    "key",
    "final",
    "snapshots",
    "iterations",
    "accepted_moves",
    "accepted_swaps",
)


def _validated_result(task: CellTask, payload: Any) -> CellResult:
    """Decode a worker result payload, validating it against ``task``.

    Raises :class:`ResultValidationError` on any structural problem —
    a non-dict return, missing keys, a key that does not match the task
    identity, an iteration count that disagrees with the step budget,
    or snapshot/final JSON that fails to deserialize (the corrupt-result
    case).  Validation runs *before* the payload is checkpointed, so a
    corrupted result can never poison the checkpoint directory.
    """
    if not isinstance(payload, dict):
        raise ResultValidationError(
            f"cell {task.key()} worker returned "
            f"{type(payload).__name__}, expected a payload dict"
        )
    missing = [key for key in _RESULT_PAYLOAD_KEYS if key not in payload]
    if missing:
        raise ResultValidationError(
            f"cell {task.key()} result payload missing keys {missing}"
        )
    if payload["key"] != task.key():
        raise ResultValidationError(
            f"result key {payload['key']!r} does not match "
            f"task {task.key()!r}"
        )
    iterations = int(payload["iterations"])
    if payload.get("stop_reason") is not None:
        # Adaptive runs legitimately stop short of the budget, but can
        # never legally exceed it.
        if iterations > task.steps:
            raise ResultValidationError(
                f"cell {task.key()} ran {iterations} iterations, "
                f"exceeding its budget of {task.steps}"
            )
    elif iterations != task.steps:
        raise ResultValidationError(
            f"cell {task.key()} ran {iterations} iterations, "
            f"expected {task.steps}"
        )
    if len(payload["snapshots"]) != len(task.checkpoints):
        raise ResultValidationError(
            f"cell {task.key()} returned {len(payload['snapshots'])} "
            f"snapshots, expected {len(task.checkpoints)}"
        )
    try:
        # Snapshots are validated *structurally* here: binary blobs by
        # magic + CRC (cheap, no ParticleSystem built — they decode
        # lazily on access), JSON strings by full decode as before.
        # The final configuration always decodes eagerly, so the
        # corrupt-result fault path is caught before checkpointing
        # regardless of codec.
        checked: List[Any] = []
        for snapshot in payload["snapshots"]:
            if isinstance(snapshot, (bytes, bytearray)):
                binary_codec.validate_blob(bytes(snapshot))
                checked.append(snapshot)
            else:
                checked.append(configuration_from_json(snapshot))
        result = _decode_result(task, payload)
        result.snapshots = LazySnapshots(checked)
        return result
    except (ValueError, KeyError, TypeError) as error:
        raise ResultValidationError(
            f"cell {task.key()} result payload is corrupt: {error}"
        ) from error


def checkpoint_path(
    directory: Path, task: CellTask, codec: str = DEFAULT_CODEC
) -> Path:
    """Filesystem location of ``task``'s checkpoint in ``directory``.

    The suffix tracks the codec: ``cell-<key>.bin`` for the binary
    columnar format, ``cell-<key>.json`` for legacy JSON.  Readers
    (:func:`read_checkpoint_payload`, resume) accept either.
    """
    return directory / f"cell-{task.key()}{_CODEC_SUFFIX[codec]}"


def read_checkpoint_payload(path: os.PathLike) -> Dict[str, Any]:
    """Read one checkpoint file, whichever codec wrote it.

    Binary checkpoints come back with their configurations still
    encoded as blobs (decode with
    :func:`repro.util.codec.decode_configuration` or via
    :func:`_decode_result`); JSON checkpoints are returned as before.
    Raises ``ValueError``/``OSError`` on corrupt or unreadable files.
    """
    path = Path(path)
    if path.suffix == _CODEC_SUFFIX["binary"]:
        return binary_codec.decode_checkpoint(path.read_bytes())
    return load_payload(path)


def write_checkpoint_payload(
    payload: Dict[str, Any], path: Path, codec: str
) -> None:
    """Atomically write one checkpoint file in the requested codec."""
    if codec == "binary":
        save_bytes(binary_codec.encode_checkpoint(payload), path)
    else:
        save_payload(payload, path)


def _load_checkpoint(
    directory: Path,
    task: CellTask,
    metrics: Optional[MetricsRegistry] = None,
    codec: str = DEFAULT_CODEC,
) -> Optional[CellResult]:
    """Load a completed cell from disk, or ``None`` if absent/unusable.

    Unreadable or mismatched files are treated as missing (with a
    warning) so that a checkpoint corrupted by a hard kill forces a
    recompute instead of poisoning the resumed sweep — binary
    corruption (bad magic, truncation, CRC mismatch) routes through
    the same recompute path as corrupt JSON.  With ``metrics``
    attached, the outcome is counted under ``engine.checkpoint_hits``
    (usable), ``engine.checkpoint_misses`` (absent), or
    ``engine.checkpoint_recomputes`` (present but unusable).

    The requested ``codec``'s file is preferred, but the other format
    is read transparently as a fallback, so legacy JSON checkpoints
    resume under the binary default (and vice versa).  Snapshots in
    binary checkpoints decode lazily (see :class:`LazySnapshots`);
    JSON checkpoints keep their historical eager decode-and-validate.
    """
    candidates = [checkpoint_path(directory, task, codec)]
    fallback = "json" if codec == "binary" else "binary"
    candidates.append(checkpoint_path(directory, task, fallback))
    path = next((c for c in candidates if c.exists()), None)
    if path is None:
        if metrics is not None:
            metrics.counter("engine.checkpoint_misses").inc()
        return None
    try:
        payload = read_checkpoint_payload(path)
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {payload.get('version')!r} unsupported"
            )
        if payload.get("key") != task.key():
            raise ValueError("checkpoint key does not match task identity")
        result = _decode_result(task, payload, from_checkpoint=True)
        if path.suffix == _CODEC_SUFFIX["json"]:
            list(result.snapshots)  # historical eager validation
        if metrics is not None:
            metrics.counter("engine.checkpoint_hits").inc()
        return result
    except (ValueError, KeyError, OSError) as error:
        if metrics is not None:
            metrics.counter("engine.checkpoint_recomputes").inc()
        warnings.warn(
            f"ignoring unusable checkpoint {path.name}: {error}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def default_workers() -> int:
    """Worker count used when ``workers`` is not given: one per core."""
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Replica-batched scheduling (kernel="batch")
# ---------------------------------------------------------------------------


def _batch_signature(task: CellTask) -> Tuple:
    """Cell identity ignoring replica/seed/label: tasks sharing it can
    run lock-step inside one :class:`~repro.core.batch_kernel.BatchKernel`."""
    return (
        task.lam,
        task.gamma,
        task.steps,
        task.swaps,
        task.checkpoints,
        task.system_json,
    )


def group_batch_tasks(
    task_list: Sequence[CellTask],
    indices: Iterable[int],
    replicas_per_task: int = 0,
) -> List[List[int]]:
    """Partition pending task indices into batch groups.

    Consecutive tasks with the same :func:`_batch_signature` share a
    group (harnesses emit replicas innermost, so whole cells coalesce);
    ``replicas_per_task > 0`` caps the group size, trading kernel
    efficiency for process-pool granularity.  Because each replica
    roots its own RNG stream from its own task seed, the grouping
    *never* affects trajectories — only scheduling.
    """
    if replicas_per_task < 0:
        raise ValueError(
            f"replicas_per_task must be >= 0, got {replicas_per_task}"
        )
    groups: List[List[int]] = []
    last_sig = None
    for index in indices:
        sig = _batch_signature(task_list[index])
        full = bool(
            groups
            and replicas_per_task > 0
            and len(groups[-1]) >= replicas_per_task
        )
        if groups and sig == last_sig and not full:
            groups[-1].append(index)
        else:
            groups.append([index])
            last_sig = sig
    return groups


def batch_group_payload(
    tasks: Sequence[CellTask],
    instrument: Optional[Dict[str, bool]] = None,
    codec: str = "json",
    adaptive: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Worker payload for one batch group (R replicas of one cell).

    ``codec="binary"`` ships the shared initial configuration as a
    columnar blob (decoded once per worker via the warm cache) and
    asks the worker to return blob configurations.  ``adaptive``
    requests ESS-targeted termination (see :func:`adaptive_flags`); the
    group's replicas vote through one
    :class:`~repro.obs.ReplicaSetDiagnostics` and stop together, so
    every member records the same stop reason.  Warm-start provenance
    travels per member.
    """
    head = tasks[0]
    payload: Dict[str, Any] = {
        "lam": head.lam,
        "gamma": head.gamma,
        "steps": head.steps,
        "swaps": head.swaps,
        "system": head.system_json,
        "checkpoints": list(head.checkpoints),
        "members": [
            {
                "key": task.key(),
                "replica": task.replica,
                "seed": task.seed,
                "label": task.label,
                "warm_parent": task.warm_parent,
            }
            for task in tasks
        ],
    }
    if codec == "binary":
        payload["codec"] = "binary"
        payload["system"] = _encoded_system(head.system_json)
        payload["system_digest"] = _system_digest(head.system_json)
    if any(task.warm_parent for task in tasks):
        payload["warm_digest"] = _system_digest(head.system_json)
    if adaptive:
        payload["adaptive"] = dict(adaptive)
    if instrument:
        payload["instrument"] = dict(instrument)
    return payload


def run_batch_group(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Worker entrypoint: advance R replicas of one cell lock-step.

    Builds a single :class:`~repro.core.batch_kernel.BatchKernel` with
    one PCG64 stream per member (rooted at the member's own task seed),
    runs checkpoint segment by checkpoint segment, and returns one
    result payload per member in member order — the same schema
    :func:`run_cell` produces, so checkpointing, decoding, and
    aggregation are shared with the scalar path.  The group's wall time
    is split evenly across members (the replicas genuinely ran
    concurrently, so per-replica attribution is a convention).

    With an ``instrument`` request, per-batch metrics (``batch.*``),
    one ``batch_cell`` trace span, and ``batch.start``/``batch.end``
    log events are attached to the *first* member's payload for the
    parent to merge.

    Fault injection matches against the group's first member key (and
    its label); the ``truncate`` mode drops the last member's payload
    to exercise the engine's payload-count validation.
    """
    fault = plan_fault(
        payload,
        payload["members"][0]["key"],
        payload["members"][0].get("label", ""),
    )
    inject_preemptive_fault(fault)
    heartbeat = _start_heartbeat(payload.get("heartbeat"))
    try:
        return corrupt_batch_payloads(
            fault, _run_batch_group_body(payload, fault)
        )
    finally:
        if heartbeat is not None:
            heartbeat.stop()


def _run_batch_group_body(
    payload: Dict[str, Any], fault: Optional[Dict[str, Any]] = None
) -> List[Dict[str, Any]]:
    from repro.core.batch_kernel import BatchKernel

    instrument = payload.get("instrument") or {}
    members = payload["members"]
    replicas = len(members)
    context = {
        "lam": payload["lam"],
        "gamma": payload["gamma"],
        "replicas": replicas,
        "label": members[0]["label"],
    }
    logger = (
        JsonLogger.collecting(context=context)
        if instrument.get("events")
        else None
    )
    metrics = MetricsRegistry() if instrument.get("metrics") else None
    trace = (
        TraceRecorder(process_name="repro-batch-worker")
        if instrument.get("trace")
        else None
    )

    wall_start = time.perf_counter()
    span_start = trace.now() if trace is not None else 0.0
    if logger is not None:
        logger.debug(
            "batch.start", steps=payload["steps"], replicas=replicas
        )

    codec = payload.get("codec", "json")
    adaptive = payload.get("adaptive") or None
    diag_every = int(instrument.get("diag_every") or 0)
    if adaptive and diag_every <= 0:
        diag_every = int(adaptive.get("stride") or 0) or DiagnosticsConfig().stride

    cache_counted = False

    def build() -> Tuple[Any, Optional[ReplicaSetDiagnostics]]:
        nonlocal cache_counted
        system, cache_hit = _base_system(payload)
        if metrics is not None and not cache_counted:
            cache_counted = True
            name = (
                "engine.system_cache_hits"
                if cache_hit
                else "engine.system_cache_misses"
            )
            metrics.counter(name).inc()
        kernel = BatchKernel(
            system,
            payload["lam"],
            payload["gamma"],
            replicas=replicas,
            seed=[member["seed"] for member in members],
            swaps=payload["swaps"],
        )
        diag = None
        if diag_every > 0:
            # Round-level observer: the kernel samples all R replicas in
            # lock step once per vectorized round, feeding per-replica
            # streams plus the cross-replica split R-hat.  Attaching it
            # never touches the proposal streams (trajectories stay
            # bit-identical; regression tested).
            diag = ReplicaSetDiagnostics(
                replicas,
                DiagnosticsConfig(stride=diag_every),
                metrics=metrics,
                logger=logger,
                trace=trace,
                label=members[0]["label"] or members[0]["key"],
            )
            kernel.observer = diag
        return kernel, diag

    kernel, diag = build()
    if codec == "binary":
        def export(r: int) -> Any:
            # Zero-copy-ish: the kernel's replica state goes straight
            # from arena arrays to columnar blob, never materializing
            # a node dict.
            return binary_codec.encode_columns(*kernel.export_columns(r))
    else:
        def export(r: int) -> Any:
            return configuration_to_json(
                kernel.export_system(r), sort_nodes=False
            )

    state_path = payload.get("state_path")
    state_every = int(payload.get("state_every") or 0)
    snapshots: List[List[Any]] = [[] for _ in range(replicas)]
    done = 0
    restored_from: Optional[int] = None
    if state_path and os.path.exists(state_path):
        # Warm restore: the snapshot was taken at a proposal-window
        # (round) boundary, so restoring the arenas, streams, cursors,
        # and per-replica RNG states and replaying the owed per-replica
        # steps reproduces the uninterrupted run bit for bit.
        try:
            state = binary_codec.decode_state(Path(state_path).read_bytes())
            if state.get("key") != members[0]["key"]:
                raise ValueError("state snapshot key does not match group")
            if int(state.get("state_every") or 0) != state_every:
                raise ValueError(
                    "state snapshot cadence does not match this run"
                )
            if int(state.get("members") or 0) != replicas:
                raise ValueError(
                    "state snapshot member count does not match"
                )
            if bool(state.get("has_diag")) != (diag is not None) or (
                diag is not None
                and int(state.get("stride") or 0) != diag_every
            ):
                raise ValueError(
                    "state snapshot diagnostics setup does not match this run"
                )
            kernel.restore_state(state)
            if diag is not None:
                diag.restore_state(state["diag"])
            done = int(state.get("snapshots_done") or 0)
            items = state.get("items") or []
            if (
                done < 0
                or done > len(payload["checkpoints"])
                or len(items) != done * replicas
            ):
                raise ValueError(
                    "state snapshot checkpoint inventory is inconsistent"
                )
            for r in range(replicas):
                snapshots[r] = list(items[r * done : (r + 1) * done])
            restored_from = int(kernel.iters.min())
            if logger is not None:
                logger.info("batch.warm_restore", iteration=restored_from)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as error:
            warnings.warn(
                f"ignoring unusable state snapshot "
                f"{Path(state_path).name}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
            snapshots = [[] for _ in range(replicas)]
            done = 0
            restored_from = None
            kernel, diag = build()

    if state_path and state_every > 0:
        last = int(kernel.iters[0])
        emitted = 0
        deferred = fault_after_snapshots(fault)

        def state_hook(k: Any) -> None:
            # Round-level like the observer: fires with every array at
            # a consistent proposal-window boundary, reads state only.
            nonlocal last, emitted
            if int(k.iters[0]) - last < state_every:
                return
            last = int(k.iters[0])
            frame: Dict[str, Any] = dict(k.export_state())
            frame["key"] = members[0]["key"]
            frame["state_every"] = state_every
            frame["members"] = replicas
            frame["has_diag"] = diag is not None
            frame["stride"] = diag_every
            frame["snapshots_done"] = len(snapshots[0])
            frame["items"] = [blob for row in snapshots for blob in row]
            if diag is not None:
                frame["diag"] = diag.state_payload()
            save_bytes(binary_codec.encode_state(frame), state_path)
            emitted += 1
            if metrics is not None:
                metrics.counter("engine.state_snapshots").inc()
            if deferred and emitted == deferred:
                fire_fault(fault)
            if drain_requested():
                raise DrainRequested(
                    f"batch group {members[0]['key']} drained at "
                    f"iteration {last}"
                )

        kernel.state_hook = state_hook

    for index, checkpoint in enumerate(payload["checkpoints"]):
        if index < done:
            # Already materialized from the restored state snapshot.
            continue
        remaining = checkpoint - kernel.iters
        if (remaining > 0).any():
            # Per-replica targets: a restored group's replicas sit at
            # different counters mid-round; each gets exactly the steps
            # the uninterrupted run still owed it.
            kernel.run(np.maximum(remaining, 0))
        for r in range(replicas):
            snapshots[r].append(export(r))
    stop_reason = None
    if adaptive:
        # Adaptive termination on the final segment: chunk the kernel
        # at verdict-cadence boundaries and let the replicas vote via
        # the group diagnostics' worst-replica fold + cross-replica
        # R-hat.  The whole group stops together, so all members stay
        # lock-step (and share one stop reason).  Chunking never
        # changes a batch trajectory, so a group stopped at iteration X
        # is a bit-exact prefix of a fixed run(X).  Verdict
        # boundaries are anchored to the *original* schedule
        # (``base + k·check_every``), so a warm-restored group checks
        # at exactly the points the uninterrupted run would have.
        stop = StopCondition.from_payload(adaptive)
        cap_end = stop.cap(payload["steps"])
        stop_reason = (
            STOP_MAX_ITERATIONS
            if cap_end < payload["steps"]
            else STOP_BUDGET
        )
        check_every = diag.config.stride * diag.config.verdict_every
        base = payload["checkpoints"][-1] if payload["checkpoints"] else 0
        position = int(kernel.iters.max())

        def verdict(pos: int) -> Optional[str]:
            if pos < stop.min_iterations and pos < cap_end:
                return None
            return stop.satisfied(diag.summary(), pos)

        # A snapshot taken in the final round of a verdict segment
        # restores with every replica exactly on the boundary but the
        # verdict still unevaluated — rule on it before dispatching the
        # next segment (the diagnostics state round-tripped, so the
        # verdict matches the uninterrupted run's).
        pending_verdict = (
            restored_from is not None
            and position > base
            and bool((kernel.iters == position).all())
            and (
                position == cap_end
                or (position - base) % check_every == 0
            )
        )
        reason = verdict(position) if pending_verdict else None
        if reason is not None:
            stop_reason = reason
        else:
            while position < cap_end:
                boundary = min(
                    cap_end,
                    base
                    + ((position - base) // check_every + 1) * check_every,
                )
                kernel.run(np.maximum(boundary - kernel.iters, 0))
                position = boundary
                reason = verdict(position)
                if reason is not None:
                    stop_reason = reason
                    break
    else:
        remaining = payload["steps"] - kernel.iters
        if (remaining > 0).any():
            kernel.run(np.maximum(remaining, 0))
    wall_time = time.perf_counter() - wall_start

    results: List[Dict[str, Any]] = []
    for r, member in enumerate(members):
        results.append(
            {
                "version": CHECKPOINT_VERSION,
                "key": member["key"],
                "snapshots": snapshots[r],
                "final": export(r),
                "iterations": int(kernel.iters[r]),
                "accepted_moves": int(kernel.acc_moves[r]),
                "accepted_swaps": int(kernel.acc_swaps[r]),
                "wall_time": wall_time / replicas,
            }
        )
        if restored_from is not None:
            results[r]["restored_from"] = restored_from
        member_diag = diag.member_summary(r) if diag is not None else None
        if member_diag is not None:
            results[r]["diag"] = member_diag
        if stop_reason is not None:
            results[r]["stop_reason"] = stop_reason
            results[r]["budget_steps"] = payload["steps"]
            results[r]["ess_at_stop"] = (member_diag or {}).get("ess")
        if member.get("warm_parent"):
            results[r]["warm_parent"] = member["warm_parent"]
            results[r]["warm_digest"] = payload.get("warm_digest")

    aggregate_steps = int(kernel.iters.sum())
    if metrics is not None:
        metrics.counter("batch.groups").inc()
        metrics.counter("batch.replicas").inc(replicas)
        metrics.counter("batch.steps").inc(aggregate_steps)
        if wall_time > 0.0:
            metrics.gauge("batch.last_replica_steps_per_sec").set(
                aggregate_steps / wall_time
            )
        metrics.histogram("batch.group_seconds").observe(wall_time)
        results[0]["metrics"] = metrics.snapshot()
    if trace is not None:
        trace.complete("batch_cell", span_start, **context)
        results[0]["trace_events"] = trace.events
    if logger is not None:
        logger.debug(
            "batch.end",
            seconds=wall_time,
            replicas=replicas,
            replica_steps_per_sec=(
                aggregate_steps / wall_time if wall_time > 0.0 else None
            ),
        )
        results[0]["events"] = logger.records
    return corrupt_batch_payloads(fault, results)


def _finalize_failures(
    directory: Optional[Path], failures: List[TaskFailure]
) -> None:
    """Persist (or clear) the quarantine manifest after an engine run.

    A run that quarantined cells leaves ``failures.json`` beside the
    checkpoints; a fully successful run removes any stale manifest so
    a ``--resume`` that recomputed every quarantined cell ends clean.
    """
    if directory is None:
        return
    if failures:
        write_failures_manifest(directory, failures)
    else:
        clear_failures_manifest(directory)


def _state_file(directory: Path, key: str) -> Path:
    """Filesystem location of a unit's mid-run state snapshot."""
    return directory / f"cell-{key}.state.bin"


def _heartbeat_file(directory: Path, key: str) -> Path:
    """Filesystem location of a unit's worker heartbeat file."""
    return directory / f"cell-{key}.hb"


def _note_warm_restore(
    obs: Optional[Instrumentation], task: CellTask, result: CellResult
) -> None:
    """Count and log a live cell that warm-restored mid-run."""
    if obs is None or result.restored_from is None:
        return
    if obs.metrics is not None:
        obs.metrics.counter("engine.warm_restores").inc()
    obs.log(
        "cell.warm_restore",
        cell=task.key(),
        label=task.label,
        restored_from=result.restored_from,
        iterations=result.iterations,
    )


def _cleanup_unit_state(directory: Optional[Path], key: str) -> None:
    """Drop a committed unit's state snapshot and heartbeat files.

    The final checkpoint supersedes the mid-run snapshot; removing it
    keeps ``--resume`` from warm-restoring into an already-complete
    cell (and keeps the directory from accumulating debris).
    """
    if directory is None:
        return
    for path in (_state_file(directory, key), _heartbeat_file(directory, key)):
        try:
            path.unlink()
        except OSError:
            pass


def _handle_drain(
    error: DrainInterrupt,
    directory: Optional[Path],
    completed: int,
    failures: List[TaskFailure],
    obs: Optional[Instrumentation],
    drain_timeout: float,
) -> None:
    """Record a graceful-shutdown interrupt before it propagates.

    Writes the resumable ``drain.json`` manifest (pending unit keys +
    completed count), persists any quarantined failures, and emits the
    ``engine.drains`` counter / ``engine.drain`` event + trace span.
    """
    if directory is not None:
        write_drain_manifest(directory, error.pending, completed)
        if failures:
            write_failures_manifest(directory, failures)
    if obs is not None:
        if obs.metrics is not None:
            obs.metrics.counter("engine.drains").inc()
        if obs.trace is not None:
            obs.trace.complete(
                "engine.drain",
                obs.trace.now(),
                pending=len(error.pending),
            )
        obs.log(
            "engine.drain",
            pending=len(error.pending),
            completed=completed,
            drain_timeout=drain_timeout,
        )


def execute_cells(
    tasks: Iterable[CellTask],
    backend: str = "serial",
    workers: Optional[int] = None,
    checkpoint_dir: Optional[os.PathLike] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    obs: Optional[Instrumentation] = None,
    retry: Optional[RetryPolicy] = None,
    failure: Optional[FailurePolicy] = None,
    fault_spec: Optional[Any] = None,
    codec: str = DEFAULT_CODEC,
    schedule: str = "cost",
    chunk: int = 0,
    adaptive: Optional[StopCondition] = None,
    state_every: int = 0,
    drain_timeout: float = 30.0,
) -> List[CellResult]:
    """Run every task and return results in task order.

    Parameters
    ----------
    backend:
        ``"serial"`` runs in-process; ``"process"`` fans out over a
        ``ProcessPoolExecutor``.  Both route each cell through
        :func:`run_cell`, so their results are identical for identical
        tasks.
    workers:
        Pool size for the process backend (default: one per CPU core).
        Ignored by the serial backend.
    checkpoint_dir:
        When given, each completed cell is written there as one file
        in the selected ``codec`` (atomically, so killing the sweep
        never leaves truncated checkpoints).  Stale ``*.tmp``
        leftovers from hard-killed runs are swept on engine start.
    resume:
        Skip tasks whose checkpoint files already exist in
        ``checkpoint_dir`` (required when ``resume=True``), loading
        their recorded results instead of recomputing.  Quarantined
        cells have no checkpoints, so a resume recomputes exactly them.
    progress:
        Optional callback ``(completed_count, total, result)`` invoked
        after every cell, including cells restored from checkpoints.
        (:class:`repro.obs.ProgressReporter` is a ready-made stderr
        implementation with EWMA cell time and ETA.)
    obs:
        Optional :class:`repro.obs.Instrumentation`.  Workers then
        collect structured log events, chain/cell metrics, pid-tagged
        trace spans, and (with ``obs.profile``) a cProfile report; the
        parent merges worker streams, counts checkpoint hits/misses/
        recomputes, and records per-cell wall-time and throughput
        under the ``engine.*`` metric names.  Instrumentation rides
        outside the task identity: checkpoints and trajectories are
        unchanged.
    retry:
        Optional :class:`~repro.experiments.resilience.RetryPolicy`
        (attempt budget, backoff, per-task timeout).  The default
        performs no retries.
    failure:
        Optional :class:`~repro.experiments.resilience.FailurePolicy`.
        The default (``"raise"``) aborts on the first failure — the
        historical behavior; ``"quarantine"`` completes with
        :class:`~repro.experiments.resilience.FailedCell` placeholders
        and a ``failures.json`` manifest instead.
    fault_spec:
        Optional fault-injection spec attached to worker payloads (see
        :mod:`repro.experiments.resilience`); for chaos testing only.
        Rides outside task identity, like ``obs``.
    codec:
        Configuration transport and checkpoint format: ``"binary"``
        (default — packed columnar blobs, ``cell-<key>.bin`` files,
        see :mod:`repro.util.codec`) or ``"json"`` (the legacy text
        path).  Resume reads either format regardless of the setting,
        and trajectories are bit-identical across codecs.
    schedule:
        ``"cost"`` (default) dispatches work longest-expected-first
        using an online-refined ``steps × n`` cost model (metrics
        under ``engine.cost_model.*``); ``"fifo"`` keeps task order.
        Scheduling never affects results, only wall time.
    chunk:
        Cheap-cell chunking under the cost scheduler on the process
        backend: ``0`` packs adaptively, ``1`` disables, ``k >= 2``
        caps chunks at ``k`` cells.  Retry/timeout/quarantine apply to
        a chunk as a unit, like a batch group.
    adaptive:
        Optional :class:`~repro.obs.StopCondition`.  Workers then stop
        each cell early once its streaming diagnostics satisfy the
        condition (``task.steps`` remains the hard budget) and record
        stop metadata — reason, ESS at stop, budget — in results and
        checkpoint headers.  ``None`` (the default) keeps fixed-budget
        execution bit-identical to historical runs.  The cost model
        observes *actual* executed iterations, so its online rates stay
        calibrated when cells stop early.
    state_every:
        Mid-run durability cadence in chain iterations: ``> 0`` makes
        workers persist a crash-consistent ``cell-<key>.state.bin``
        snapshot (configuration, counters, RNG state, diagnostics
        state) at least every ``state_every`` iterations, atomically,
        beside the checkpoints.  A retried or ``--resume``\\ d cell
        warm-restores from its snapshot and replays only the missing
        tail — bit-identical to an uninterrupted run at the same
        cadence, with recompute bounded by the snapshot interval.
        ``0`` (the default) disables snapshots.  Requires
        ``checkpoint_dir``.
    drain_timeout:
        Graceful-shutdown budget in seconds.  On SIGTERM/SIGINT the
        engine stops dispatching, lets in-flight cells reach their next
        durable snapshot (workers raise
        :class:`~repro.experiments.resilience.DrainRequested` there),
        writes a resumable ``drain.json`` manifest, and raises
        :class:`~repro.experiments.resilience.DrainInterrupt`; cells
        still running past the budget are torn down (their last
        snapshot survives).  A second SIGINT aborts immediately.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if codec not in CODECS:
        raise ValueError(
            f"unknown codec {codec!r}; expected one of {CODECS}"
        )
    if schedule not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; expected one of {SCHEDULES}"
        )
    if chunk < 0:
        raise ValueError(f"chunk must be >= 0, got {chunk}")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    if state_every < 0:
        raise ValueError(f"state_every must be >= 0, got {state_every}")
    if state_every > 0 and checkpoint_dir is None:
        raise ValueError("state_every > 0 requires a checkpoint_dir")
    if drain_timeout <= 0:
        raise ValueError(
            f"drain_timeout must be positive, got {drain_timeout}"
        )
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if obs is not None and not obs.enabled():
        obs = None
    retry = retry if retry is not None else RetryPolicy()
    failure = failure if failure is not None else FailurePolicy()

    task_list = list(tasks)
    for task in task_list:
        task.validate()

    directory: Optional[Path] = None
    if checkpoint_dir is not None:
        directory = Path(checkpoint_dir)
        directory.mkdir(parents=True, exist_ok=True)
        sweep_stale_temp_files(directory)

    total = len(task_list)
    engine_started = time.perf_counter()
    engine_span_start = 0.0
    if obs is not None:
        if obs.trace is not None:
            engine_span_start = obs.trace.now()
        obs.log(
            "engine.start",
            cells=total,
            backend=backend,
            workers=workers,
            resume=resume,
            on_failure=failure.mode,
            max_retries=retry.max_retries,
        )

    results: List[Optional[CellResult]] = [None] * total
    completed = 0
    pending: List[int] = []
    for index, task in enumerate(task_list):
        restored = (
            _load_checkpoint(
                directory,
                task,
                metrics=obs.metrics if obs else None,
                codec=codec,
            )
            if resume
            else None
        )
        if restored is not None:
            results[index] = restored
            completed += 1
            if obs is not None:
                _absorb_cell(obs, task, {"key": task.key()}, restored)
            if progress is not None:
                progress(completed, total, restored)
        else:
            pending.append(index)

    instrument = obs.worker_flags() if obs is not None else None
    adaptive_request = adaptive_flags(adaptive, obs)
    effective_workers = workers if workers is not None else default_workers()

    model: Optional[CostModel] = None
    if schedule == "cost":
        model = CostModel(metrics=obs.metrics if obs else None)
        groups = _plan_chunks(
            task_list,
            pending,
            model,
            effective_workers,
            # Chunking only pays on the process backend (it amortizes
            # IPC); serial dispatch has nothing to amortize.
            chunk if backend == "process" else 1,
        )
    else:
        groups = [[index] for index in pending]

    units = []
    for uid, group in enumerate(groups):
        payloads = []
        for index in group:
            payload = task_payload(
                task_list[index],
                instrument,
                codec=codec,
                adaptive=adaptive_request,
            )
            if fault_spec is not None:
                payload["fault"] = fault_spec
            if directory is not None and state_every > 0:
                payload["state_path"] = str(
                    _state_file(directory, task_list[index].key())
                )
                payload["state_every"] = state_every
            payloads.append(payload)
        heartbeat = (
            str(_heartbeat_file(directory, task_list[group[0]].key()))
            if directory is not None and backend == "process"
            else None
        )
        if len(group) == 1:
            if heartbeat is not None:
                payloads[0]["heartbeat"] = heartbeat
            units.append(
                WorkUnit(
                    uid=uid,
                    fn=run_cell,
                    payload=payloads[0],
                    tasks=[task_list[group[0]]],
                    heartbeat=heartbeat,
                )
            )
        else:
            chunk_payload: Dict[str, Any] = {"cells": payloads}
            if heartbeat is not None:
                chunk_payload["heartbeat"] = heartbeat
            units.append(
                WorkUnit(
                    uid=uid,
                    fn=run_cell_chunk,
                    payload=chunk_payload,
                    tasks=[task_list[index] for index in group],
                    heartbeat=heartbeat,
                )
            )

    if obs is not None and model is not None and units:
        chunked = sum(1 for group in groups if len(group) > 1)
        if obs.metrics is not None:
            obs.metrics.gauge("engine.cost_model.units").set(len(units))
            obs.metrics.gauge("engine.cost_model.chunked_units").set(chunked)
        obs.log(
            "engine.schedule",
            cells=len(pending),
            units=len(units),
            chunked_units=chunked,
            schedule=schedule,
        )

    order_key = None
    if model is not None:
        def order_key(unit: WorkUnit) -> float:
            return sum(model.predict_seconds(task) for task in unit.tasks)

    def decode(unit: WorkUnit, raw: Any) -> List[Tuple[Dict, CellResult]]:
        group = groups[unit.uid]
        if len(group) == 1:
            return [(raw, _validated_result(unit.tasks[0], raw))]
        if not isinstance(raw, list):
            raise ResultValidationError(
                f"chunk {unit.key} worker returned "
                f"{type(raw).__name__}, expected a payload list"
            )
        if len(raw) != len(group):
            raise ResultValidationError(
                f"chunk {unit.key} returned {len(raw)} payloads "
                f"for {len(group)} cells"
            )
        return [
            (payload, _validated_result(task_list[index], payload))
            for index, payload in zip(group, raw)
        ]

    def commit(
        unit: WorkUnit, decoded: List[Tuple[Dict, CellResult]]
    ) -> None:
        nonlocal completed
        for index, (payload, result) in zip(groups[unit.uid], decoded):
            task = task_list[index]
            if directory is not None:
                disk_payload = {
                    key: value
                    for key, value in payload.items()
                    if key not in _OBS_PAYLOAD_KEYS
                }
                write_checkpoint_payload(
                    disk_payload,
                    checkpoint_path(directory, task, codec),
                    codec,
                )
            if model is not None:
                # Adaptive cells stop short of their budget; train the
                # EWMA on the units actually executed, not budgeted.
                model.observe(
                    task, result.wall_time, iterations=result.iterations
                )
            _cleanup_unit_state(directory, task.key())
            _note_warm_restore(obs, task, result)
            if obs is not None:
                _absorb_cell(obs, task, payload, result)
            results[index] = result
            completed += 1
            if progress is not None:
                progress(completed, total, result)

    def quarantine(unit: WorkUnit, records: List[TaskFailure]) -> None:
        nonlocal completed
        for index, record in zip(groups[unit.uid], records):
            placeholder = FailedCell(
                task=task_list[index],
                error=record.error,
                kind=record.kind,
                attempts=record.attempts,
            )
            results[index] = placeholder
            completed += 1
            if progress is not None:
                progress(completed, total, placeholder)

    executor = ResilientExecutor(
        backend=backend,
        workers=effective_workers,
        retry=retry,
        failure=failure,
        obs=obs,
        order_key=order_key,
        initializer=warm_worker if codec == "binary" else None,
        initargs=(
            (_warm_entries(unit.payload for unit in units),)
            if codec == "binary"
            else ()
        ),
        drain=drain_event(),
        drain_timeout=drain_timeout,
    )
    reset_drain()
    handlers = install_drain_handlers()
    try:
        executor.run(units, decode, commit, quarantine)
    except DrainInterrupt as error:
        _handle_drain(
            error, directory, completed, executor.failures, obs, drain_timeout
        )
        raise
    except BaseException:
        # Aborted runs persist whatever was already quarantined but
        # never *clear* a manifest they did not complete.
        if directory is not None and executor.failures:
            write_failures_manifest(directory, executor.failures)
        raise
    finally:
        restore_drain_handlers(handlers)
    _finalize_failures(directory, executor.failures)
    if directory is not None:
        clear_drain_manifest(directory)

    if obs is not None:
        elapsed = time.perf_counter() - engine_started
        if obs.metrics is not None:
            obs.metrics.gauge("engine.wall_seconds").set(elapsed)
            obs.metrics.gauge("engine.cells_total").set(total)
        if obs.trace is not None:
            obs.trace.complete(
                "execute_cells",
                engine_span_start,
                cells=total,
                backend=backend,
            )
        obs.log(
            "engine.done",
            cells=total,
            seconds=elapsed,
            failed=len(executor.failures),
        )

    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def _absorb_cell(
    obs: Instrumentation,
    task: CellTask,
    payload: Dict[str, Any],
    result: CellResult,
) -> None:
    """Fold one finished (or restored) cell into parent instrumentation.

    Worker log events are re-emitted in timestamp order with their
    original pid, worker trace events are stitched into the parent
    recorder, and worker metrics merge into the parent registry; the
    parent then adds its own per-cell engine metrics — a histogram of
    wall-times, throughput gauges, and one ``engine.cells`` series
    entry carrying the cell's identity, wall-time, and steps/sec.
    """
    wall = result.wall_time
    throughput = result.iterations / wall if wall > 0.0 else None
    key = payload.get("key", "")
    if obs.metrics is not None:
        worker_snapshot = payload.get("metrics")
        if worker_snapshot:
            obs.metrics.merge(worker_snapshot)
        obs.metrics.counter("engine.cells_completed").inc()
        obs.metrics.counter("engine.steps").inc(result.iterations)
        if wall > 0.0:
            obs.metrics.histogram("engine.cell_seconds").observe(wall)
            obs.metrics.gauge("engine.last_cell_steps_per_sec").set(throughput)
        obs.metrics.series("engine.cells").append(
            {
                "cell": key,
                "label": task.label,
                "lam": task.lam,
                "gamma": task.gamma,
                "replica": task.replica,
                "iterations": result.iterations,
                "accepted_moves": result.accepted_moves,
                "accepted_swaps": result.accepted_swaps,
                "wall_time": wall,
                "steps_per_sec": throughput,
                "from_checkpoint": result.from_checkpoint,
                "stop_reason": result.stop_reason,
                "budget_steps": result.budget_steps,
                "ess_at_stop": result.ess_at_stop,
                "warm_parent": result.warm_parent,
                "restored_from": result.restored_from,
            }
        )
        diag = result.diag
        if diag:
            obs.metrics.series("diag.cells").append(
                {
                    "cell": key,
                    "label": task.label,
                    "lam": task.lam,
                    "gamma": task.gamma,
                    "replica": task.replica,
                    "iteration": diag.get("iteration"),
                    "samples": diag.get("samples"),
                    "ess": diag.get("ess"),
                    "tau": diag.get("tau"),
                    "geweke": diag.get("geweke"),
                    "rhat": diag.get("rhat"),
                    "acceptance_rate": diag.get("acceptance_rate"),
                    "stalled": diag.get("stalled"),
                    "converged": diag.get("converged"),
                    "ess_min": diag.get("ess_min"),
                }
            )
    if result.diag and obs.logger is not None:
        obs.logger.info(
            "cell.convergence",
            cell=key,
            label=task.label,
            converged=result.diag.get("converged"),
            stalled=result.diag.get("stalled"),
            ess=result.diag.get("ess"),
            rhat=result.diag.get("rhat"),
            reasons=result.diag.get("reasons"),
            stop_reason=result.stop_reason,
        )
    if obs.trace is not None and payload.get("trace_events"):
        obs.trace.extend(payload["trace_events"])
    if obs.logger is not None:
        worker_events = payload.get("events")
        if worker_events:
            for record in merge_records(worker_events):
                obs.logger.emit(record)
        obs.logger.info(
            "cell.done",
            cell=key,
            label=task.label,
            lam=task.lam,
            gamma=task.gamma,
            replica=task.replica,
            iterations=result.iterations,
            wall_time=wall,
            steps_per_sec=throughput,
            from_checkpoint=result.from_checkpoint,
        )
    if result.profile:
        if obs.logger is not None:
            obs.logger.info("cell.profile", cell=key, profile=result.profile)
        else:
            sys.stderr.write(result.profile)


@dataclass
class BatchRunner:
    """Schedule whole cells (R replicas each) onto batch kernels.

    The scalar engine (:func:`execute_cells`) fans out one process task
    per *replica*; this runner fans out one task per *cell group*, each
    advancing up to ``replicas_per_task`` replicas lock-step inside one
    :class:`~repro.core.batch_kernel.BatchKernel` (0 = no cap: one
    kernel per cell).  Everything else — per-replica checkpoint files,
    resume semantics, result ordering, progress callbacks, and the
    ``engine.*`` observability stream — matches the scalar engine, so
    harnesses can swap runners without changing aggregation.  Batch
    workers additionally report per-batch ``batch.*`` metrics and a
    ``batch_cell`` trace span per group.
    """

    backend: str = "serial"
    workers: Optional[int] = None
    replicas_per_task: int = 0
    checkpoint_dir: Optional[os.PathLike] = None
    resume: bool = False
    progress: Optional[ProgressCallback] = None
    obs: Optional[Instrumentation] = None
    retry: Optional[RetryPolicy] = None
    failure: Optional[FailurePolicy] = None
    fault_spec: Optional[Any] = None
    codec: str = DEFAULT_CODEC
    schedule: str = "cost"
    adaptive: Optional[StopCondition] = None
    state_every: int = 0
    drain_timeout: float = 30.0

    def run(self, tasks: Iterable[CellTask]) -> List[CellResult]:
        """Execute every task and return results in task order.

        The retry/failure policies apply at *group* granularity: a
        worker exception, timeout, or malformed return (including the
        historical silent-truncation bug — a worker returning fewer
        payloads than the group has members, now a hard
        :class:`~repro.experiments.resilience.ResultValidationError`)
        fails the whole group, which is then recomputed or quarantined
        as a unit.
        """
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {BACKENDS}"
            )
        if self.codec not in CODECS:
            raise ValueError(
                f"unknown codec {self.codec!r}; expected one of {CODECS}"
            )
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; "
                f"expected one of {SCHEDULES}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        if self.state_every < 0:
            raise ValueError(
                f"state_every must be >= 0, got {self.state_every}"
            )
        if self.state_every > 0 and self.checkpoint_dir is None:
            raise ValueError("state_every > 0 requires a checkpoint_dir")
        if self.drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be positive, got {self.drain_timeout}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        obs = self.obs
        if obs is not None and not obs.enabled():
            obs = None
        retry = self.retry if self.retry is not None else RetryPolicy()
        failure = self.failure if self.failure is not None else FailurePolicy()

        task_list = list(tasks)
        for task in task_list:
            task.validate()

        directory: Optional[Path] = None
        if self.checkpoint_dir is not None:
            directory = Path(self.checkpoint_dir)
            directory.mkdir(parents=True, exist_ok=True)
            sweep_stale_temp_files(directory)

        total = len(task_list)
        engine_started = time.perf_counter()
        engine_span_start = 0.0
        if obs is not None:
            if obs.trace is not None:
                engine_span_start = obs.trace.now()
            obs.log(
                "engine.start",
                cells=total,
                backend=self.backend,
                workers=self.workers,
                resume=self.resume,
                mode="batch",
                replicas_per_task=self.replicas_per_task,
                on_failure=failure.mode,
                max_retries=retry.max_retries,
            )

        results: List[Optional[CellResult]] = [None] * total
        completed = 0
        pending: List[int] = []
        for index, task in enumerate(task_list):
            restored = (
                _load_checkpoint(
                    directory,
                    task,
                    metrics=obs.metrics if obs else None,
                    codec=self.codec,
                )
                if self.resume
                else None
            )
            if restored is not None:
                results[index] = restored
                completed += 1
                if obs is not None:
                    _absorb_cell(obs, task, {"key": task.key()}, restored)
                if self.progress is not None:
                    self.progress(completed, total, restored)
            else:
                pending.append(index)

        instrument = obs.worker_flags() if obs is not None else None
        adaptive_request = adaptive_flags(self.adaptive, obs)
        groups = group_batch_tasks(
            task_list, pending, self.replicas_per_task
        )

        model: Optional[CostModel] = None
        if self.schedule == "cost":
            model = CostModel(metrics=obs.metrics if obs else None)

        units = []
        for uid, group in enumerate(groups):
            payload = batch_group_payload(
                [task_list[i] for i in group],
                instrument,
                codec=self.codec,
                adaptive=adaptive_request,
            )
            if self.fault_spec is not None:
                payload["fault"] = self.fault_spec
            group_key = task_list[group[0]].key()
            if directory is not None and self.state_every > 0:
                # One snapshot per group: the kernel's replicas advance
                # lock-step, so their state serializes as one frame.
                payload["state_path"] = str(_state_file(directory, group_key))
                payload["state_every"] = self.state_every
            heartbeat = (
                str(_heartbeat_file(directory, group_key))
                if directory is not None and self.backend == "process"
                else None
            )
            if heartbeat is not None:
                payload["heartbeat"] = heartbeat
            units.append(
                WorkUnit(
                    uid=uid,
                    fn=run_batch_group,
                    payload=payload,
                    tasks=[task_list[i] for i in group],
                    heartbeat=heartbeat,
                )
            )

        order_key = None
        if model is not None:
            def order_key(unit: WorkUnit) -> float:
                return sum(
                    model.predict_seconds(task) for task in unit.tasks
                )

        def decode(unit: WorkUnit, raw: Any) -> List[Tuple[Dict, CellResult]]:
            group = groups[unit.uid]
            if not isinstance(raw, list):
                raise ResultValidationError(
                    f"batch group {unit.key} worker returned "
                    f"{type(raw).__name__}, expected a payload list"
                )
            if len(raw) != len(group):
                # Previously this mismatch was silently zip-truncated,
                # leaving None results that only tripped the final
                # assert; now the whole group is recomputed.
                raise ResultValidationError(
                    f"batch group {unit.key} returned {len(raw)} payloads "
                    f"for {len(group)} members"
                )
            return [
                (payload, _validated_result(task_list[index], payload))
                for index, payload in zip(group, raw)
            ]

        def commit(
            unit: WorkUnit, decoded: List[Tuple[Dict, CellResult]]
        ) -> None:
            nonlocal completed
            for index, (payload, result) in zip(groups[unit.uid], decoded):
                task = task_list[index]
                if directory is not None:
                    disk_payload = {
                        key: value
                        for key, value in payload.items()
                        if key not in _OBS_PAYLOAD_KEYS
                    }
                    write_checkpoint_payload(
                        disk_payload,
                        checkpoint_path(directory, task, self.codec),
                        self.codec,
                    )
                if model is not None:
                    model.observe(
                        task, result.wall_time, iterations=result.iterations
                    )
                _note_warm_restore(obs, task, result)
                if obs is not None:
                    _absorb_cell(obs, task, payload, result)
                results[index] = result
                completed += 1
                if self.progress is not None:
                    self.progress(completed, total, result)
            # The group shares one state snapshot, keyed by its first
            # member; every member checkpoint is now committed.
            _cleanup_unit_state(directory, unit.tasks[0].key())

        def quarantine(unit: WorkUnit, records: List[TaskFailure]) -> None:
            nonlocal completed
            for index, record in zip(groups[unit.uid], records):
                placeholder = FailedCell(
                    task=task_list[index],
                    error=record.error,
                    kind=record.kind,
                    attempts=record.attempts,
                )
                results[index] = placeholder
                completed += 1
                if self.progress is not None:
                    self.progress(completed, total, placeholder)

        executor = ResilientExecutor(
            backend=self.backend,
            workers=(
                self.workers if self.workers is not None else default_workers()
            ),
            retry=retry,
            failure=failure,
            obs=obs,
            order_key=order_key,
            initializer=warm_worker if self.codec == "binary" else None,
            initargs=(
                (_warm_entries(unit.payload for unit in units),)
                if self.codec == "binary"
                else ()
            ),
            drain=drain_event(),
            drain_timeout=self.drain_timeout,
        )
        reset_drain()
        handlers = install_drain_handlers()
        try:
            executor.run(units, decode, commit, quarantine)
        except DrainInterrupt as error:
            _handle_drain(
                error,
                directory,
                completed,
                executor.failures,
                obs,
                self.drain_timeout,
            )
            raise
        except BaseException:
            if directory is not None and executor.failures:
                write_failures_manifest(directory, executor.failures)
            raise
        finally:
            restore_drain_handlers(handlers)
        _finalize_failures(directory, executor.failures)
        if directory is not None:
            clear_drain_manifest(directory)

        if obs is not None:
            elapsed = time.perf_counter() - engine_started
            if obs.metrics is not None:
                obs.metrics.gauge("engine.wall_seconds").set(elapsed)
                obs.metrics.gauge("engine.cells_total").set(total)
                obs.metrics.gauge("engine.batch_groups").set(len(groups))
            if obs.trace is not None:
                obs.trace.complete(
                    "execute_cells",
                    engine_span_start,
                    cells=total,
                    backend=self.backend,
                    mode="batch",
                )
            obs.log(
                "engine.done",
                cells=total,
                seconds=elapsed,
                failed=len(executor.failures),
            )

        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]


def dispatch_cells(
    tasks: Iterable[CellTask],
    backend: str = "serial",
    workers: Optional[int] = None,
    checkpoint_dir: Optional[os.PathLike] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    obs: Optional[Instrumentation] = None,
    replicas_per_task: int = 0,
    retry: Optional[RetryPolicy] = None,
    failure: Optional[FailurePolicy] = None,
    fault_spec: Optional[Any] = None,
    codec: str = DEFAULT_CODEC,
    schedule: str = "cost",
    chunk: int = 0,
    adaptive: Optional[StopCondition] = None,
    warm_start: str = "off",
    state_every: int = 0,
    drain_timeout: float = 30.0,
) -> List[CellResult]:
    """Route tasks to the scalar engine or the batch runner by kernel.

    Harness-facing front door: tasks whose ``kernel`` is ``"batch"``
    run through :class:`BatchRunner` (whole cells per task), everything
    else through :func:`execute_cells` (one replica per task).  Mixed
    batches are rejected — a harness emits one kernel per run.
    ``retry``/``failure``/``fault_spec`` configure the resilience layer
    on either path (see :mod:`repro.experiments.resilience`);
    ``codec``/``schedule``/``chunk`` configure the transport codec and
    cost-model scheduling (see :func:`execute_cells` — none of them
    affect results, only speed).

    ``adaptive`` requests ESS-targeted early termination (see
    :func:`execute_cells`).  ``warm_start="ladder"`` additionally
    replaces the flat longest-first schedule with a dependency DAG:
    the (λ, γ) grid is planned as anti-diagonal waves
    (:func:`repro.experiments.costmodel.plan_ladder`) and each cell's
    initial configuration is swapped for the equilibrated final
    configuration of its nearest already-finished neighbor, per
    replica, cutting burn-in.  Warm-started cells are *statistically*
    — not bit-wise — equivalent to cold ones (different initial
    condition, same stationary distribution), so the ladder is opt-in
    and composes with ``adaptive``, where skipping burn-in is what
    converts warm starts into wall-clock savings.
    """
    if warm_start not in WARM_STARTS:
        raise ValueError(
            f"unknown warm_start {warm_start!r}; "
            f"expected one of {WARM_STARTS}"
        )
    task_list = list(tasks)
    kwargs = dict(
        backend=backend,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        progress=progress,
        obs=obs,
        replicas_per_task=replicas_per_task,
        retry=retry,
        failure=failure,
        fault_spec=fault_spec,
        codec=codec,
        schedule=schedule,
        chunk=chunk,
        adaptive=adaptive,
        state_every=state_every,
        drain_timeout=drain_timeout,
    )
    if warm_start == "ladder" and len(task_list) > 1:
        return _dispatch_ladder(task_list, **kwargs)
    batch_flags = {task.kernel == "batch" for task in task_list}
    if batch_flags == {True}:
        return BatchRunner(
            backend=backend,
            workers=workers,
            replicas_per_task=replicas_per_task,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            progress=progress,
            obs=obs,
            retry=retry,
            failure=failure,
            fault_spec=fault_spec,
            codec=codec,
            schedule=schedule,
            adaptive=adaptive,
            state_every=state_every,
            drain_timeout=drain_timeout,
        ).run(task_list)
    if True in batch_flags:
        raise ValueError(
            "cannot mix kernel='batch' tasks with scalar-kernel tasks "
            "in one dispatch"
        )
    return execute_cells(
        task_list,
        backend=backend,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        progress=progress,
        obs=obs,
        retry=retry,
        failure=failure,
        fault_spec=fault_spec,
        codec=codec,
        schedule=schedule,
        chunk=chunk,
        adaptive=adaptive,
        state_every=state_every,
        drain_timeout=drain_timeout,
    )


def _dispatch_ladder(
    task_list: List[CellTask],
    progress: Optional[ProgressCallback] = None,
    obs: Optional[Instrumentation] = None,
    **kwargs: Any,
) -> List[CellResult]:
    """Wave-by-wave dependency-DAG dispatch with neighbor warm starts.

    Waves come from :func:`repro.experiments.costmodel.plan_ladder`
    (anti-diagonals of the (λ, γ) rank grid, rooted at the smallest
    parameters — the fastest-mixing corner by Theorems 1–2's phase
    structure).  Within a wave every cell's parents are finished, so
    each task's ``system_json`` is replaced with its parent's
    equilibrated final configuration (same replica; the γ-neighbor is
    preferred, then the λ-neighbor; cells with no finished parent run
    cold).  The provenance rides in ``warm_parent`` and — because the
    configuration digest participates in the task key — a stale parent
    automatically invalidates any checkpoint written for the child.

    Quarantined parents simply leave their children cold; failure
    handling inside each wave is unchanged.
    """
    waves = plan_ladder(task_list)
    total = len(task_list)
    results: List[Optional[CellResult]] = [None] * total
    lams = sorted({task.lam for task in task_list})
    gammas = sorted({task.gamma for task in task_list})
    lam_prev = {lam: lams[i - 1] for i, lam in enumerate(lams) if i > 0}
    gamma_prev = {g: gammas[i - 1] for i, g in enumerate(gammas) if i > 0}
    finished: Dict[Tuple[float, float, int], Tuple[str, str]] = {}

    if obs is not None:
        obs.log(
            "engine.ladder",
            cells=total,
            waves=len(waves),
            lams=len(lams),
            gammas=len(gammas),
        )
        if obs.metrics is not None:
            obs.metrics.gauge("engine.ladder_waves").set(len(waves))

    done_before = 0
    for wave in waves:
        warmed: List[CellTask] = []
        for index in wave:
            task = task_list[index]
            for parent_cell in (
                (task.lam, gamma_prev.get(task.gamma)),
                (lam_prev.get(task.lam), task.gamma),
            ):
                if parent_cell[0] is None or parent_cell[1] is None:
                    continue
                entry = finished.get((*parent_cell, task.replica))
                if entry is not None:
                    parent_key, parent_json = entry
                    task = dataclass_replace(
                        task,
                        system_json=parent_json,
                        warm_parent=parent_key,
                    )
                    break
            warmed.append(task)

        wave_progress: Optional[ProgressCallback] = None
        if progress is not None:
            def wave_progress(
                done: int,
                _wave_total: int,
                result: CellResult,
                _base: int = done_before,
            ) -> None:
                progress(_base + done, total, result)

        wave_results = dispatch_cells(
            warmed,
            progress=wave_progress,
            obs=obs,
            warm_start="off",
            **kwargs,
        )
        for index, task, result in zip(wave, warmed, wave_results):
            results[index] = result
            if isinstance(result, FailedCell):
                continue
            finished[(task.lam, task.gamma, task.replica)] = (
                task.key(),
                configuration_to_json(result.system, sort_nodes=False),
            )
        done_before += len(wave)

    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def resolve_backend(backend: Optional[str], workers: Optional[int]) -> str:
    """CLI convenience: pick a backend from ``--backend``/``--workers``.

    An explicit backend wins; otherwise requesting more than one worker
    implies the process pool and anything else stays serial.
    """
    if backend is not None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        return backend
    if workers is not None and workers > 1:
        return "process"
    return "serial"


def group_by_cell(
    results: Sequence[CellResult], replicas: int
) -> List[List[CellResult]]:
    """Split a flat, task-ordered result list into per-cell replica groups.

    Harnesses emit tasks replica-innermost; this restores the
    ``cells × replicas`` nesting for aggregation.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be positive, got {replicas}")
    if len(results) % replicas:
        raise ValueError(
            f"{len(results)} results do not divide into groups of {replicas}"
        )
    return [
        list(results[start : start + replicas])
        for start in range(0, len(results), replicas)
    ]
