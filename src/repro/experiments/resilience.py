"""Fault-tolerant execution for the sweep engine.

The paper's quantitative results come from thousand-cell sweeps fanned
out over a process pool; a single worker failure used to abort the
whole sweep and lose every in-flight cell.  The amoebot model itself
assumes progress despite unreliable local activations (Cannon et al.,
arXiv:1805.04599), so the engine that reproduces it should be at least
as robust as the system it simulates.  This module supplies the
resilience layer :mod:`repro.experiments.parallel` threads through
every work unit of its engine (scalar cells, cell chunks, and batch
groups):

* :class:`RetryPolicy` — how often and how eagerly a failing cell is
  re-attempted: retry budget, exponential backoff with *deterministic*
  jitter (derived from the cell key, so reruns behave identically), and
  an optional per-task timeout watchdog.
* :class:`FailurePolicy` — what happens when the budget is exhausted:
  ``"raise"`` (fail fast, the historical behavior and the default),
  ``"retry"`` (retry then raise), or ``"quarantine"`` (record a
  :class:`FailedCell` placeholder plus a ``failures.json`` manifest and
  let the sweep complete with partial results; ``--resume`` then
  recomputes only the quarantined cells).
* :class:`ResilientExecutor` — the execution loop of the engine's
  work units.  The serial path retries in place (its timeout is a
  *post-hoc* watchdog: an in-process cell cannot be preempted, but an
  overlong one is still treated as failed and retried).  The process
  path tracks per-future deadlines, rebuilds a broken pool a bounded
  number of times (``BrokenProcessPool`` — e.g. an OOM-killed worker —
  costs a pool restart, not a task retry: every unfinished task is
  simply resubmitted, finished cells are already checkpointed), and
  terminates hung workers when a timeout fires so their slots are
  reclaimed.
* Fault injection — env- or payload-driven ``crash`` / ``exit`` /
  ``hang`` / ``corrupt`` / ``truncate`` faults (the execution-engine
  cousin of the crash-stop particles in
  :mod:`repro.distributed.faults`), with a filesystem ledger so "fail
  the first k attempts" stays deterministic across processes and pool
  rebuilds.  This is what makes the layer testable: the chaos suite
  asserts that surviving cells are bit-identical to a clean run.
* Graceful shutdown & liveness — a process-wide drain flag set by
  SIGTERM/SIGINT (:func:`install_drain_handlers`) stops dispatch,
  gives in-flight cells ``drain_timeout`` seconds to finish or stop at
  a durable state snapshot, and raises :class:`DrainInterrupt` with
  the still-pending keys (persisted as a resumable ``drain.json``
  manifest); per-unit heartbeat files let the supervisor distinguish
  live-but-slow cells from silently dead ones.

Because a retried task re-runs the *identical* payload with the
identical derived seed, retries never perturb trajectories: a sweep
that limps through crashes produces exactly the results of an
undisturbed one.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Failure dispositions understood by :class:`FailurePolicy`.
FAILURE_MODES = ("raise", "retry", "quarantine")

#: Environment variable carrying a fault spec (inline JSON or a path to
#: a JSON file); read by workers, so it reaches forked pool processes.
FAULT_ENV = "REPRO_FAULT_SPEC"

#: Name of the quarantine manifest written into the checkpoint dir.
FAILURES_MANIFEST = "failures.json"

#: Schema version of the failures manifest payload.
FAILURES_MANIFEST_VERSION = 1

#: Name of the resumable drain manifest written on graceful shutdown.
DRAIN_MANIFEST = "drain.json"

#: Schema version of the drain manifest payload.
DRAIN_MANIFEST_VERSION = 1


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class TaskTimeoutError(RuntimeError):
    """A cell exceeded the policy's per-task timeout."""


class ResultValidationError(ValueError):
    """A worker returned a malformed or corrupted result payload."""


class InjectedFault(RuntimeError):
    """Raised by the fault-injection hook's ``crash`` mode."""


class CellFailedError(RuntimeError):
    """A cell exhausted its retry budget under a non-quarantine policy."""


class PoolRestartsExhausted(RuntimeError):
    """The process pool broke more times than the policy allows."""


class DrainRequested(RuntimeError):
    """Raised inside a worker when a drain was requested mid-cell.

    The cell stopped at its last *durable* state snapshot, so nothing
    is lost: a resumed sweep warm-restores from that snapshot.  The
    executor treats this as "still pending", never as a task failure.
    """


class DrainInterrupt(RuntimeError):
    """The sweep stopped early on a graceful-shutdown request.

    ``pending`` carries the keys of every unit that did not commit a
    final checkpoint; the engine records them in the ``drain.json``
    manifest so ``--resume`` knows the interruption was deliberate.
    """

    def __init__(self, message: str, pending: Sequence[str] = ()):
        super().__init__(message)
        self.pending: List[str] = list(pending)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How failing cells are re-attempted.

    ``max_retries`` counts *additional* attempts after the first (0 = no
    retries).  ``task_timeout`` is a per-task watchdog in seconds
    (``None`` disables it); on the process backend an expired task's
    worker is terminated and the task retried, on the serial backend
    the check is post-hoc (the cell cannot be preempted in-process but
    still counts as failed).  Backoff before attempt ``k+1`` is
    ``backoff_base * backoff_factor**(k-1)`` capped at ``backoff_max``,
    scaled by a deterministic jitter in [0.5, 1.0] derived from the
    cell key — reruns of the same sweep back off identically.
    """

    max_retries: int = 0
    task_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < self.backoff_base:
            raise ValueError(
                f"backoff_max {self.backoff_max} is below "
                f"backoff_base {self.backoff_base}"
            )

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff (seconds) before re-attempting after failure ``attempt``.

        Deterministic: the jitter comes from a digest of ``token`` (the
        cell key) and the attempt number, not from global RNG state —
        injecting faults or retrying never perturbs any simulation
        stream, and identical reruns produce identical schedules.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.backoff_max,
            self.backoff_base * (self.backoff_factor ** (attempt - 1)),
        )
        digest = hashlib.sha256(f"{token}|{attempt}".encode()).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (0.5 + 0.5 * jitter)


@dataclass(frozen=True)
class FailurePolicy:
    """What a cell failure does to the sweep.

    ``mode``:

    * ``"raise"`` — fail fast on the first error (no retries; the
      historical behavior and the default);
    * ``"retry"`` — consume the :class:`RetryPolicy` budget, then raise
      :class:`CellFailedError`;
    * ``"quarantine"`` — consume the budget, then record a
      :class:`FailedCell` placeholder and a ``failures.json`` manifest
      so the sweep completes with partial results.

    ``max_pool_restarts`` bounds how many times a broken process pool
    is rebuilt before giving up with :class:`PoolRestartsExhausted`
    (pool breaks are counted separately from per-task retries: a dying
    worker takes innocent in-flight tasks with it, so those are
    resubmitted without charging their retry budgets).
    """

    mode: str = "raise"
    max_pool_restarts: int = 3

    def validate(self) -> None:
        if self.mode not in FAILURE_MODES:
            raise ValueError(
                f"unknown failure mode {self.mode!r}; "
                f"expected one of {FAILURE_MODES}"
            )
        if self.max_pool_restarts < 0:
            raise ValueError(
                f"max_pool_restarts must be >= 0, "
                f"got {self.max_pool_restarts}"
            )

    @property
    def retries_enabled(self) -> bool:
        return self.mode in ("retry", "quarantine")


# ---------------------------------------------------------------------------
# Failure records
# ---------------------------------------------------------------------------


@dataclass
class TaskFailure:
    """One exhausted cell, as recorded in the ``failures.json`` manifest."""

    key: str
    label: str
    lam: float
    gamma: float
    replica: int
    seed: int
    error: str
    kind: str  # "exception" | "timeout" | "validation"
    attempts: int

    def to_json(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "label": self.label,
            "lam": self.lam,
            "gamma": self.gamma,
            "replica": self.replica,
            "seed": self.seed,
            "error": self.error,
            "kind": self.kind,
            "attempts": self.attempts,
        }


@dataclass
class FailedCell:
    """Quarantine placeholder standing in for a :class:`CellResult`.

    Duck-types the result attributes aggregation code touches
    (``system`` is ``None``, counters zero, ``snapshots`` empty) and
    carries the failure description.  ``failed`` is the discriminator:
    real results expose ``failed = False``.
    """

    task: Any
    error: str
    kind: str
    attempts: int
    system: Any = None
    snapshots: List[Any] = field(default_factory=list)
    iterations: int = 0
    accepted_moves: int = 0
    accepted_swaps: int = 0
    from_checkpoint: bool = False
    wall_time: float = 0.0
    profile: Optional[str] = None
    diag: Optional[dict] = None
    failed: bool = True


def is_failed(result: Any) -> bool:
    """Whether a result slot is a quarantine placeholder."""
    return bool(getattr(result, "failed", False))


def surviving(results: Sequence[Any]) -> List[Any]:
    """The non-quarantined results, in order."""
    return [result for result in results if not is_failed(result)]


# ---------------------------------------------------------------------------
# failures.json manifest
# ---------------------------------------------------------------------------


def failures_manifest_path(directory: os.PathLike) -> Path:
    """Location of the quarantine manifest inside a checkpoint dir."""
    return Path(directory) / FAILURES_MANIFEST


def write_failures_manifest(
    directory: os.PathLike, failures: Sequence[TaskFailure]
) -> Path:
    """Atomically write the quarantine manifest for ``failures``."""
    from repro.util.serialization import save_payload

    path = failures_manifest_path(directory)
    save_payload(
        {
            "version": FAILURES_MANIFEST_VERSION,
            "count": len(failures),
            "failures": [failure.to_json() for failure in failures],
        },
        path,
    )
    return path


def load_failures_manifest(directory: os.PathLike) -> List[Dict[str, Any]]:
    """Read the manifest's failure records (empty list if absent)."""
    from repro.util.serialization import load_payload

    path = failures_manifest_path(directory)
    if not path.exists():
        return []
    payload = load_payload(path)
    if payload.get("version") != FAILURES_MANIFEST_VERSION:
        raise ValueError(
            f"failures manifest version {payload.get('version')!r} unsupported"
        )
    return list(payload.get("failures", []))


def clear_failures_manifest(directory: os.PathLike) -> None:
    """Remove a stale manifest (a fully successful rerun clears it)."""
    path = failures_manifest_path(directory)
    try:
        path.unlink()
    except FileNotFoundError:
        pass


# ---------------------------------------------------------------------------
# Graceful shutdown (drain)
# ---------------------------------------------------------------------------

#: Process-wide drain flag.  Set by the SIGTERM/SIGINT handlers in the
#: parent; pool children forked *after* the handlers were installed
#: inherit the handler and set their own copy, which is exactly what a
#: worker's snapshot hook polls to stop at a durable boundary.
_DRAIN_EVENT = threading.Event()


def drain_event() -> threading.Event:
    """The process-wide drain event (for wiring into executors)."""
    return _DRAIN_EVENT


def drain_requested() -> bool:
    """Whether a graceful shutdown has been requested in this process."""
    return _DRAIN_EVENT.is_set()


def request_drain() -> None:
    """Programmatically request a drain (what the signal handler does)."""
    _DRAIN_EVENT.set()


def reset_drain() -> None:
    """Clear the drain flag (call before starting a new sweep)."""
    _DRAIN_EVENT.clear()


def _drain_signal_handler(signum, frame) -> None:
    if _DRAIN_EVENT.is_set() and signum == signal.SIGINT:
        # A second Ctrl-C means "stop waiting": fall back to the
        # ordinary KeyboardInterrupt abort path.
        raise KeyboardInterrupt
    _DRAIN_EVENT.set()


def install_drain_handlers() -> List[Tuple[int, Any]]:
    """Install SIGTERM/SIGINT drain handlers (main thread only).

    Returns the ``(signum, previous_handler)`` pairs actually
    installed, for :func:`restore_drain_handlers`.  Off the main
    thread (or on platforms without the signals) this is a no-op —
    graceful shutdown degrades to the ordinary abort path rather than
    failing the sweep.
    """
    installed: List[Tuple[int, Any]] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            installed.append(
                (signum, signal.signal(signum, _drain_signal_handler))
            )
        except (ValueError, OSError, RuntimeError):
            continue
    return installed


def restore_drain_handlers(installed: Sequence[Tuple[int, Any]]) -> None:
    """Undo :func:`install_drain_handlers`."""
    for signum, previous in installed:
        try:
            signal.signal(signum, previous)
        except (ValueError, OSError, RuntimeError, TypeError):
            continue


def drain_manifest_path(directory: os.PathLike) -> Path:
    """Location of the drain manifest inside a checkpoint dir."""
    return Path(directory) / DRAIN_MANIFEST


def write_drain_manifest(
    directory: os.PathLike,
    pending: Sequence[str],
    completed: int,
    reason: str = "signal",
) -> Path:
    """Atomically write the resumable drain manifest."""
    from repro.util.serialization import save_payload

    path = drain_manifest_path(directory)
    save_payload(
        {
            "version": DRAIN_MANIFEST_VERSION,
            "reason": reason,
            "completed": int(completed),
            "pending": list(pending),
        },
        path,
    )
    return path


def load_drain_manifest(directory: os.PathLike) -> Optional[Dict[str, Any]]:
    """Read the drain manifest (``None`` if absent)."""
    from repro.util.serialization import load_payload

    path = drain_manifest_path(directory)
    if not path.exists():
        return None
    payload = load_payload(path)
    if payload.get("version") != DRAIN_MANIFEST_VERSION:
        raise ValueError(
            f"drain manifest version {payload.get('version')!r} unsupported"
        )
    return payload


def clear_drain_manifest(directory: os.PathLike) -> None:
    """Remove the drain manifest (a completed resume clears it)."""
    path = drain_manifest_path(directory)
    try:
        path.unlink()
    except FileNotFoundError:
        pass


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

#: Fault modes the worker-side hook understands.
FAULT_MODES = (
    "crash",
    "exit",
    "hang",
    "corrupt",
    "truncate",
    "sigkill",
    "preempt",
)

#: In-process fallback ledger (used when a rule has no ``dir``); the
#: lock keeps it safe under the serial backend's potential reentrancy.
_LOCAL_LEDGER: Dict[Tuple[str, str], int] = {}
_LOCAL_LEDGER_LOCK = threading.Lock()


def resolve_fault_spec(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The fault rules applying to a worker payload.

    Payload-driven injection (an engine-side ``fault`` key) wins;
    otherwise :data:`FAULT_ENV` is consulted — either inline JSON or a
    path to a JSON file.  The spec is one rule object or a list of
    rules; an unreadable spec disables injection rather than failing
    real work.
    """
    spec: Any = payload.get("fault")
    if spec is None:
        raw = os.environ.get(FAULT_ENV, "").strip()
        if not raw:
            return []
        try:
            if raw.startswith("{") or raw.startswith("["):
                spec = json.loads(raw)
            else:
                spec = json.loads(Path(raw).read_text())
        except (OSError, ValueError):
            return []
    if isinstance(spec, dict):
        spec = [spec]
    if not isinstance(spec, list):
        return []
    return [rule for rule in spec if isinstance(rule, dict)]


def _rule_matches(rule: Dict[str, Any], key: str, label: str) -> bool:
    pattern = str(rule.get("match", "*"))
    return pattern == "*" or pattern in key or pattern in label


def _claim_fault(rule: Dict[str, Any], key: str) -> bool:
    """Atomically claim one injection slot for ``key`` under ``rule``.

    With a ledger ``dir`` the claim is an ``O_EXCL`` marker file, so
    "inject the first ``times`` attempts" holds across processes,
    retries, and pool rebuilds.  Without a dir a process-local counter
    is used (sufficient for the serial backend).
    """
    times = int(rule.get("times", 1))
    if times <= 0:
        return False
    mode = str(rule.get("mode", ""))
    directory = rule.get("dir")
    if directory:
        ledger = Path(directory)
        ledger.mkdir(parents=True, exist_ok=True)
        for slot in range(times):
            marker = ledger / f"fault-{mode}-{key}-{slot}"
            try:
                with open(marker, "x"):
                    return True
            except FileExistsError:
                continue
        return False
    with _LOCAL_LEDGER_LOCK:
        used = _LOCAL_LEDGER.get((mode, key), 0)
        if used >= times:
            return False
        _LOCAL_LEDGER[(mode, key)] = used + 1
        return True


def plan_fault(
    payload: Dict[str, Any], key: str, label: str = ""
) -> Optional[Dict[str, Any]]:
    """The fault rule (if any) claimed for this execution of ``key``.

    Call once per worker invocation *before* doing real work; the
    returned rule is the single claimed injection (first matching rule
    with budget wins).
    """
    for rule in resolve_fault_spec(payload):
        if str(rule.get("mode", "")) not in FAULT_MODES:
            continue
        if not _rule_matches(rule, key, label):
            continue
        if _claim_fault(rule, key):
            return rule
    return None


def fault_after_snapshots(rule: Optional[Dict[str, Any]]) -> int:
    """How many durable state snapshots must land before the rule fires.

    ``0`` (the default) means the fault is preemptive — injected before
    any real work.  A positive value defers injection to the worker's
    snapshot hook, which calls :func:`fire_fault` after the n-th
    durable snapshot — the deterministic way to exercise warm restarts
    ("die *with* resumable state on disk").
    """
    if rule is None:
        return 0
    try:
        return max(0, int(rule.get("after_snapshots", 0)))
    except (TypeError, ValueError):
        return 0


def fire_fault(rule: Optional[Dict[str, Any]]) -> None:
    """Fire a claimed process-level fault rule at its trigger point.

    ``exit`` hard-kills the worker (``os._exit``) and ``sigkill``
    delivers an uncatchable SIGKILL — both provoke a
    ``BrokenProcessPool`` in the parent; in the main process (serial
    backend) they degrade to a ``crash`` so fault-specced serial runs
    don't kill the caller.  ``preempt`` delivers SIGTERM to the worker:
    with the default disposition the process dies on the spot, but a
    pool forked *after* :func:`install_drain_handlers` inherits the
    drain handler, so the signal instead sets the child-local drain
    flag and the cell stops at its next durable snapshot
    (:class:`DrainRequested`) — exactly a preemption notice.  In the
    main process ``preempt`` simply requests a drain.  ``hang`` sleeps
    ``hang_seconds`` and then lets the cell proceed; the engine's
    timeout watchdog is expected to have disposed of it by then.
    """
    if rule is None:
        return
    mode = rule["mode"]
    if mode == "crash":
        raise InjectedFault(
            f"injected crash ({rule.get('match', '*')})"
        )
    if mode == "exit":
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            os._exit(int(rule.get("exit_code", 17)))
        raise InjectedFault("injected exit (demoted to crash in-process)")
    if mode == "sigkill":
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        raise InjectedFault("injected sigkill (demoted to crash in-process)")
    if mode == "preempt":
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGTERM)
            return
        request_drain()
        return
    if mode == "hang":
        time.sleep(float(rule.get("hang_seconds", 30.0)))


def inject_preemptive_fault(rule: Optional[Dict[str, Any]]) -> None:
    """Apply a claimed rule before real work starts (unless deferred).

    Result-stage modes (``corrupt``/``truncate``) and rules with a
    positive ``after_snapshots`` deferral pass through untouched — the
    former fire when the result payload is built, the latter from the
    worker's snapshot hook via :func:`fire_fault`.
    """
    if rule is None:
        return
    if rule["mode"] in ("corrupt", "truncate"):
        return
    if fault_after_snapshots(rule) > 0:
        return
    fire_fault(rule)


def corrupt_result_payload(
    rule: Optional[Dict[str, Any]], result: Dict[str, Any]
) -> Dict[str, Any]:
    """Apply a claimed ``corrupt`` rule to a scalar result payload.

    Corruption is codec-aware: a binary (columnar blob) final
    configuration is truncated mid-frame, a JSON one is replaced with
    a version-mismatched document — either way the engine's result
    validation must reject the payload before it can be checkpointed.
    """
    if rule is not None and rule["mode"] == "corrupt":
        result = dict(result)
        final = result.get("final")
        if isinstance(final, (bytes, bytearray)):
            result["final"] = bytes(final)[: max(8, len(final) // 2)]
        else:
            result["final"] = '{"format_version": -1}'
    return result


def corrupt_batch_payloads(
    rule: Optional[Dict[str, Any]], results: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Apply a claimed ``corrupt``/``truncate`` rule to batch results."""
    if rule is None:
        return results
    if rule["mode"] == "truncate" and results:
        return results[:-1]
    if rule["mode"] == "corrupt" and results:
        results = list(results)
        results[-1] = corrupt_result_payload(rule, results[-1])
    return results


# ---------------------------------------------------------------------------
# Work units and the resilient executor
# ---------------------------------------------------------------------------


@dataclass
class WorkUnit:
    """One schedulable unit: a scalar cell, a chunk of cheap cells, or a
    whole batch group.

    ``fn`` must be a module-level (picklable) worker; ``payload`` is
    its JSON-able argument.  ``tasks`` are the member
    :class:`~repro.experiments.parallel.CellTask` objects (one for a
    scalar cell, several for a chunk or batch group) used for failure
    records.
    """

    uid: int
    fn: Callable[[Dict[str, Any]], Any]
    payload: Dict[str, Any]
    tasks: Sequence[Any]
    #: Optional heartbeat file the worker touches while the unit runs;
    #: the supervisor polls its mtime to tell live-but-slow cells from
    #: silently dead ones.
    heartbeat: Optional[str] = None

    @property
    def key(self) -> str:
        return self.tasks[0].key()

    @property
    def label(self) -> str:
        return self.tasks[0].label or self.key


def _failure_kind(error: BaseException) -> str:
    if isinstance(error, TaskTimeoutError):
        return "timeout"
    if isinstance(error, ResultValidationError):
        return "validation"
    return "exception"


class ResilientExecutor:
    """Run work units under a retry/timeout/quarantine regime.

    The caller supplies three hooks:

    * ``decode(unit, raw)`` — validate and decode a worker's raw return
      value; raising (any exception) counts as a *retryable* task
      failure of kind ``"validation"``.
    * ``commit(unit, decoded)`` — persist and account a validated
      result (checkpoint write, progress, obs).  Not retried: an error
      here is a caller bug and propagates.
    * ``quarantine(unit, failures)`` — record placeholders for a unit
      that exhausted its budget under ``mode="quarantine"``.

    Under ``mode="raise"`` the original worker exception propagates
    unchanged (the historical engine contract); ``mode="retry"`` wraps
    the final error in :class:`CellFailedError`.
    """

    def __init__(
        self,
        backend: str,
        workers: Optional[int],
        retry: RetryPolicy,
        failure: FailurePolicy,
        obs: Any = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        order_key: Optional[Callable[[WorkUnit], float]] = None,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple = (),
        queue_depth: int = 2,
        drain: Optional[threading.Event] = None,
        drain_timeout: float = 30.0,
        heartbeat_grace: Optional[float] = 15.0,
    ):
        """``order_key``, ``initializer``/``initargs`` and
        ``queue_depth`` extend the original executor:

        * ``order_key`` — units are dispatched highest-key-first
          instead of FIFO.  The key is re-evaluated at every dispatch
          decision, so callers whose key closes over live state (the
          engine's online cost model) get adaptive ordering for free.
          Retries compete with fresh units under the same key.
        * ``initializer``/``initargs`` — forwarded to the process
          pool (and re-applied on every rebuild after a
          ``BrokenProcessPool``); the engine uses them to pre-warm
          worker-side configuration caches.
        * ``queue_depth`` — the process path keeps at most
          ``workers × queue_depth`` futures in flight rather than
          submitting the whole queue up front.  This keeps scheduling
          decisions late (so the cost model can reorder what has not
          been submitted yet) and makes per-task timeout deadlines
          start at *dispatch*, not at enqueue time.
        * ``drain`` — a graceful-shutdown event (usually the
          process-wide one behind :func:`drain_requested`).  Once set,
          no new unit is dispatched; in-flight work gets up to
          ``drain_timeout`` seconds to finish or reach a durable
          snapshot, then the run stops with :class:`DrainInterrupt`
          listing every unit still pending.
        * ``heartbeat_grace`` — staleness threshold (seconds) for a
          unit's heartbeat file on the process path; a running unit
          whose heartbeat is older than this is reported once via the
          ``worker.heartbeat_miss`` counter/event (``None`` disables
          the poll).
        """
        retry.validate()
        failure.validate()
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be positive, got {drain_timeout}"
            )
        if heartbeat_grace is not None and heartbeat_grace <= 0:
            raise ValueError(
                f"heartbeat_grace must be positive, got {heartbeat_grace}"
            )
        self.backend = backend
        self.workers = workers
        self.retry = retry
        self.failure = failure
        self.obs = obs
        self._sleep = sleep
        self._clock = clock
        self.order_key = order_key
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.queue_depth = queue_depth
        self.drain = drain
        self.drain_timeout = drain_timeout
        self.heartbeat_grace = heartbeat_grace
        self.failures: List[TaskFailure] = []

    # -- shared accounting ---------------------------------------------

    def _note_retry(
        self, unit: WorkUnit, error: BaseException, attempt: int, delay: float
    ) -> None:
        obs = self.obs
        if obs is None:
            return
        if obs.metrics is not None:
            obs.metrics.counter("engine.retries").inc()
            if isinstance(error, TaskTimeoutError):
                obs.metrics.counter("engine.timeouts").inc()
        obs.log(
            "cell.retry",
            level="warning",
            cell=unit.key,
            label=unit.label,
            attempt=attempt,
            kind=_failure_kind(error),
            error=str(error),
            delay=delay,
        )
        if obs.trace is not None:
            now = obs.trace.now()
            obs.trace.complete(
                "cell.retry",
                now,
                end_us=now + delay * 1e6,
                cell=unit.key,
                attempt=attempt,
                kind=_failure_kind(error),
            )

    def _note_failure(
        self, unit: WorkUnit, error: BaseException, attempts: int
    ) -> None:
        obs = self.obs
        if obs is None:
            return
        if obs.metrics is not None:
            obs.metrics.counter("engine.failures").inc()
            if isinstance(error, TaskTimeoutError):
                obs.metrics.counter("engine.timeouts").inc()
        obs.log(
            "cell.failed",
            level="error",
            cell=unit.key,
            label=unit.label,
            attempts=attempts,
            kind=_failure_kind(error),
            error=str(error),
        )

    def _dispose(
        self,
        unit: WorkUnit,
        error: BaseException,
        attempt: int,
        quarantine: Callable[[WorkUnit, List[TaskFailure]], None],
    ) -> Optional[float]:
        """Decide a failed attempt's fate.

        Returns the backoff delay when the unit should be retried, or
        ``None`` when it was quarantined.  Raises (the original error
        under ``mode="raise"``, :class:`CellFailedError` under
        ``mode="retry"``) when the sweep must abort.
        """
        if self.failure.retries_enabled and attempt <= self.retry.max_retries:
            delay = self.retry.delay(attempt, unit.key)
            self._note_retry(unit, error, attempt, delay)
            return delay
        self._note_failure(unit, error, attempt)
        if self.failure.mode == "quarantine":
            kind = _failure_kind(error)
            records = [
                TaskFailure(
                    key=task.key(),
                    label=task.label,
                    lam=task.lam,
                    gamma=task.gamma,
                    replica=task.replica,
                    seed=task.seed,
                    error=str(error),
                    kind=kind,
                    attempts=attempt,
                )
                for task in unit.tasks
            ]
            self.failures.extend(records)
            quarantine(unit, records)
            return None
        if self.failure.mode == "raise":
            raise error
        raise CellFailedError(
            f"cell {unit.label} failed after {attempt} attempt(s): {error}"
        ) from error

    # -- graceful shutdown ---------------------------------------------

    def _drain_set(self) -> bool:
        return self.drain is not None and self.drain.is_set()

    def _raise_drain(self, pending: Sequence[WorkUnit]) -> None:
        keys: List[str] = []
        seen = set()
        for unit in pending:
            if unit.key not in seen:
                seen.add(unit.key)
                keys.append(unit.key)
        raise DrainInterrupt(
            f"drain requested; {len(keys)} unit(s) still pending",
            pending=keys,
        )

    # -- worker liveness -----------------------------------------------

    def _check_heartbeats(self, inflight, hb_meta) -> None:
        """Flag in-flight units whose heartbeat file has gone stale.

        A live-but-slow worker keeps touching its heartbeat, so a slow
        cell never trips this; a silently dead or wedged one (SIGKILL
        landed but the pool has not noticed, or a hang before the cell
        body) stops touching it and is reported once per flight.
        Detection only — disposal stays with the timeout watchdog and
        the ``BrokenProcessPool`` machinery.
        """
        grace = self.heartbeat_grace
        if grace is None or self.obs is None:
            return
        now = time.time()
        for future, (unit, _, _) in inflight.items():
            path = getattr(unit, "heartbeat", None)
            if not path:
                continue
            meta = hb_meta.get(future)
            if meta is None or meta[1]:
                continue
            try:
                beat = os.path.getmtime(path)
            except OSError:
                beat = meta[0]  # never written: measure from dispatch
            stale = now - max(beat, meta[0])
            if stale <= grace:
                continue
            meta[1] = True
            if self.obs.metrics is not None:
                self.obs.metrics.counter("worker.heartbeat_miss").inc()
            self.obs.log(
                "worker.heartbeat_miss",
                level="warning",
                cell=unit.key,
                label=unit.label,
                stale_seconds=round(stale, 3),
            )

    # -- entry point ---------------------------------------------------

    def run(
        self,
        units: Sequence[WorkUnit],
        decode: Callable[[WorkUnit, Any], Any],
        commit: Callable[[WorkUnit, Any], None],
        quarantine: Callable[[WorkUnit, List[TaskFailure]], None],
    ) -> None:
        if self.backend == "serial":
            self._run_serial(units, decode, commit, quarantine)
        else:
            self._run_process(units, decode, commit, quarantine)

    # -- scheduling ----------------------------------------------------

    def _pop_next(self, queue: List) -> Tuple[WorkUnit, int]:
        """Remove and return the next ``(unit, attempt)`` to dispatch.

        FIFO without an ``order_key``; otherwise the pending entry
        with the highest key (ties broken by queue position, so equal
        keys preserve task order).  Linear scan — sweeps are thousands
        of units at most, and re-evaluating the key at pop time is
        what lets an online cost model steer the order.
        """
        if self.order_key is None:
            return queue.pop(0)
        best = max(
            range(len(queue)), key=lambda i: (self.order_key(queue[i][0]), -i)
        )
        return queue.pop(best)

    # -- serial path ---------------------------------------------------

    def _run_serial(self, units, decode, commit, quarantine) -> None:
        timeout = self.retry.task_timeout
        queue = [(unit, 0) for unit in units]
        while queue:
            if self._drain_set():
                self._raise_drain([unit for unit, _ in queue])
            unit, attempt = self._pop_next(queue)
            while True:
                attempt += 1
                started = self._clock()
                try:
                    raw = unit.fn(unit.payload)
                    elapsed = self._clock() - started
                    if timeout is not None and elapsed > timeout:
                        raise TaskTimeoutError(
                            f"cell {unit.label} took {elapsed:.2f}s "
                            f"(> task_timeout {timeout:.2f}s)"
                        )
                    decoded = decode(unit, raw)
                except DrainRequested:
                    # The cell stopped at its last durable snapshot; it
                    # is still pending, not failed.
                    self._raise_drain([unit] + [u for u, _ in queue])
                except Exception as error:
                    delay = self._dispose(unit, error, attempt, quarantine)
                    if delay is None:  # quarantined
                        break
                    if delay > 0:
                        self._sleep(delay)
                    continue
                commit(unit, decoded)
                break

    # -- process path --------------------------------------------------

    def _teardown_pool(self, pool: ProcessPoolExecutor, kill: bool) -> None:
        pool.shutdown(wait=False, cancel_futures=True)
        if kill:
            # Hung or wedged workers hold their slots past shutdown();
            # terminating them (private API, best-effort) is the only
            # way to reclaim the cores before the rebuilt pool starts.
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass

    def _run_process(self, units, decode, commit, quarantine) -> None:
        timeout = self.retry.task_timeout
        queue: List[Tuple[WorkUnit, int]] = [(unit, 1) for unit in units]
        waiting: List[Tuple[float, WorkUnit, int]] = []  # (resume, unit, att)
        inflight: Dict[Any, Tuple[WorkUnit, int, Optional[float]]] = {}
        # Per-future heartbeat bookkeeping: [dispatch wall time, reported].
        hb_meta: Dict[Any, List] = {}
        pool: Optional[ProcessPoolExecutor] = None
        restarts = 0
        draining = False
        drain_deadline: Optional[float] = None
        # Lazy bounded submission: keep a small in-flight window so
        # not-yet-submitted units can still be reordered by order_key
        # and timeout deadlines only start once a task actually ships.
        max_inflight = max(1, (self.workers or 1) * self.queue_depth)

        def handle_failure(unit, error, attempt) -> None:
            delay = self._dispose(unit, error, attempt, quarantine)
            if delay is not None:
                waiting.append((self._clock() + delay, unit, attempt + 1))

        def handle_raw(unit, attempt, raw) -> None:
            try:
                decoded = decode(unit, raw)
            except Exception as error:
                handle_failure(unit, error, attempt)
                return
            commit(unit, decoded)

        try:
            while queue or waiting or inflight:
                now = self._clock()
                if not draining and self._drain_set():
                    draining = True
                    drain_deadline = now + self.drain_timeout
                if draining and (
                    not inflight
                    or (drain_deadline is not None and now >= drain_deadline)
                ):
                    # Deadline hit (or nothing left in flight): whatever
                    # has not committed stays pending; its durable
                    # snapshots make the recompute cheap on resume.
                    pending = (
                        [entry[0] for entry in inflight.values()]
                        + [u for u, _ in queue]
                        + [w[1] for w in waiting]
                    )
                    if pool is not None:
                        self._teardown_pool(pool, kill=True)
                        pool = None
                    self._raise_drain(pending)
                if waiting:
                    ready = [w for w in waiting if w[0] <= now]
                    waiting = [w for w in waiting if w[0] > now]
                    for _, unit, attempt in ready:
                        queue.append((unit, attempt))
                pool_broken = False
                if queue and pool is None and not draining:
                    pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=self.initializer,
                        initargs=self.initargs,
                    )
                while queue and not draining and len(inflight) < max_inflight:
                    unit, attempt = self._pop_next(queue)
                    try:
                        future = pool.submit(unit.fn, unit.payload)
                    except BrokenProcessPool:
                        queue.insert(0, (unit, attempt))
                        pool_broken = True
                        break
                    deadline = (
                        self._clock() + timeout
                        if timeout is not None
                        else None
                    )
                    inflight[future] = (unit, attempt, deadline)
                    hb_meta[future] = [time.time(), False]

                if inflight and not pool_broken:
                    deadlines = [
                        entry[2]
                        for entry in inflight.values()
                        if entry[2] is not None
                    ]
                    wake_times = list(deadlines) + [w[0] for w in waiting]
                    if draining and drain_deadline is not None:
                        wake_times.append(drain_deadline)
                    if self.heartbeat_grace is not None and any(
                        getattr(entry[0], "heartbeat", None)
                        for entry in inflight.values()
                    ):
                        # Poll at half the grace period so a stale
                        # heartbeat is noticed within ~1.5 graces.
                        wake_times.append(
                            self._clock() + self.heartbeat_grace / 2
                        )
                    wait_timeout = (
                        max(0.0, min(wake_times) - self._clock())
                        if wake_times
                        else None
                    )
                    done, _ = wait(
                        set(inflight),
                        timeout=wait_timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        unit, attempt, _ = inflight.pop(future)
                        hb_meta.pop(future, None)
                        try:
                            raw = future.result()
                        except BrokenProcessPool:
                            # A dying worker poisons every outstanding
                            # future; resubmission is free (the retry
                            # budget is for *task* failures).
                            pool_broken = True
                            queue.append((unit, attempt))
                            continue
                        except DrainRequested:
                            # A preempted worker stopped the cell at its
                            # last durable snapshot: still pending, and
                            # the whole sweep now drains.
                            queue.append((unit, attempt))
                            if not draining:
                                draining = True
                                drain_deadline = (
                                    self._clock() + self.drain_timeout
                                )
                            continue
                        except Exception as error:
                            handle_failure(unit, error, attempt)
                            continue
                        handle_raw(unit, attempt, raw)
                    self._check_heartbeats(inflight, hb_meta)

                    # Deadline watchdog for whatever is still running.
                    now = self._clock()
                    expired = [
                        future
                        for future, (_, _, deadline) in inflight.items()
                        if deadline is not None and deadline <= now
                    ]
                    for future in expired:
                        unit, attempt, _ = inflight.pop(future)
                        hb_meta.pop(future, None)
                        if not future.cancel():
                            # Already executing: the worker is wedged on
                            # this cell and must be killed to reclaim
                            # its slot.
                            pool_broken = True
                        handle_failure(
                            unit,
                            TaskTimeoutError(
                                f"cell {unit.label} exceeded task_timeout "
                                f"{timeout:.2f}s"
                            ),
                            attempt,
                        )

                if pool_broken:
                    # Salvage finished results, resubmit the rest, and
                    # rebuild the pool (bounded).
                    for future, (unit, attempt, _) in list(inflight.items()):
                        if future.done():
                            try:
                                raw = future.result()
                            except BrokenProcessPool:
                                queue.append((unit, attempt))
                            except DrainRequested:
                                queue.append((unit, attempt))
                                if not draining:
                                    draining = True
                                    drain_deadline = (
                                        self._clock() + self.drain_timeout
                                    )
                            except Exception as error:
                                handle_failure(unit, error, attempt)
                            else:
                                handle_raw(unit, attempt, raw)
                        else:
                            future.cancel()
                            queue.append((unit, attempt))
                    inflight.clear()
                    hb_meta.clear()
                    if pool is not None:
                        self._teardown_pool(pool, kill=True)
                        pool = None
                    if not (queue or waiting):
                        continue  # nothing left to run; no restart needed
                    restarts += 1
                    if self.obs is not None:
                        if self.obs.metrics is not None:
                            self.obs.metrics.counter(
                                "engine.pool_restarts"
                            ).inc()
                        self.obs.log(
                            "engine.pool_restart",
                            level="warning",
                            restarts=restarts,
                            max_pool_restarts=self.failure.max_pool_restarts,
                        )
                    if restarts > self.failure.max_pool_restarts:
                        raise PoolRestartsExhausted(
                            f"process pool broke {restarts} times "
                            f"(max_pool_restarts="
                            f"{self.failure.max_pool_restarts})"
                        )

                if not inflight and not queue and waiting:
                    # Nothing in flight; sleep until the next backoff
                    # expires instead of spinning.
                    pause = min(w[0] for w in waiting) - self._clock()
                    if pause > 0:
                        self._sleep(pause)
        except BaseException:
            if pool is not None:
                self._teardown_pool(pool, kill=True)
                pool = None
            raise
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
