"""Spans around the public calls of each ``repro`` layer, and their analysis.

Recording side (inside the CLI process and its pool workers):
:func:`install` puts an import hook on ``sys.meta_path``.  When a
module named in :data:`PATCHES` finishes executing, the hook replaces
the listed functions and methods with timing wrappers.  It patches the
defining module, so every later ``from X import name`` picks up the
wrapper; ``random_blob_system`` and ``configuration_to_json`` are
patched only in the harness modules that build the tasks.  Nothing
under ``src/`` changes, and no per-step function is wrapped.  The pool
forks after the patches are in place, so workers inherit them; each
worker appends its spans to ``spans-<pid>.jsonl`` after every work
unit, the parent when the CLI exits.

A span is ``(name, layer, start, end, id, parent id, attrs)``.  A call
into a layer whose innermost open span already belongs to that layer is
folded into the open span (a ladder's nested ``dispatch_cells``, a
chunk's member cells, ``run_until`` calling ``run``).

Analysis side (in the benchmark process): :func:`layer_metrics` turns
the merged spans into the per-layer metrics; a layer's self time is
its span durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# -- probes: attributes measured at a layer boundary ---------------------------


def _cell(lam: float, gamma: float) -> str:
    return f"lam{lam:g}-gamma{gamma:g}"


def _chain_before(args):
    chain = args[0]
    return chain.iterations, chain.accepted_moves + chain.accepted_swaps


def _chain_after(args, result, before):
    chain = args[0]
    return {
        "steps": chain.iterations - before[0],
        "accepted": chain.accepted_moves + chain.accepted_swaps - before[1],
        "cell": _cell(chain.lam, chain.gamma),
    }


def _batch_before(args):
    kernel = args[0]
    return (
        int(kernel.iters.sum()),
        int(kernel.acc_moves.sum()) + int(kernel.acc_swaps.sum()),
    )


def _batch_after(args, result, before):
    kernel = args[0]
    accepted = int(kernel.acc_moves.sum()) + int(kernel.acc_swaps.sum())
    return {
        "steps": int(kernel.iters.sum()) - before[0],
        "accepted": accepted - before[1],
        "cell": _cell(kernel.lam, kernel.gamma),
    }


def _encoded(args, result, before):
    return {"bytes": len(result)}


def _decoded(args, result, before):
    return {"bytes": len(args[0])}


def _bytes_saved(args, result, before):
    return {"bytes": len(args[0])}


def _payload_saved(args, result, before):
    return {"bytes": os.path.getsize(args[1])}


def _verdict(args, result, before):
    return {"verdicts": 1}


def _cell_unit(args, result, before):
    return {"budget": args[0]["steps"], "executed": result["iterations"]}


def _chunk_unit(args, result, before):
    return {
        "budget": sum(cell["steps"] for cell in args[0]["cells"]),
        "executed": sum(member["iterations"] for member in result),
    }


def _group_unit(args, result, before):
    payload = args[0]
    return {
        "budget": payload["steps"] * len(payload["members"]),
        "executed": sum(member["iterations"] for member in result),
    }


#: Where each layer's public calls are wrapped: module -> [(attribute path,
#: layer, before-probe, after-probe)].  Layers are named after modules.
PATCHES: Dict[str, List[Tuple[str, str, Optional[Callable], Optional[Callable]]]] = {
    "repro.util.serialization": [
        ("save_bytes", "io", None, _bytes_saved),
        ("save_payload", "io", None, _payload_saved),
    ],
    "repro.util.codec": [
        ("encode_checkpoint", "codec", None, _encoded),
        ("decode_checkpoint", "codec", None, _decoded),
        ("encode_configuration", "codec", None, _encoded),
        ("decode_configuration", "codec", None, _decoded),
        ("encode_columns", "codec", None, _encoded),
        ("encode_state", "codec", None, _encoded),
    ],
    "repro.core.separation_chain": [
        ("SeparationChain.run", "chain", _chain_before, _chain_after),
        ("SeparationChain.run_until", "chain", _chain_before, _chain_after),
    ],
    "repro.core.batch_kernel": [
        ("BatchKernel.run", "batch", _batch_before, _batch_after),
    ],
    # ChainDiagnostics.maybe_observe/maybe_record are left unwrapped: on
    # a batch kernel they run once per vectorized round.  On the scalar
    # path observe_chain is their only caller, once per stride.
    "repro.obs.convergence": [
        ("ChainDiagnostics.observe_chain", "diag", None, None),
        ("ChainDiagnostics.summary", "diag", None, None),
        ("StopCondition.satisfied", "diag", None, _verdict),
    ],
    "repro.analysis.separation_metric": [
        ("best_certificate", "metric", None, None),
    ],
    "repro.experiments.phases": [
        ("classify_phase", "phases", None, None),
        ("phase_metrics", "phases", None, None),
    ],
    "repro.experiments.parallel": [
        ("dispatch_cells", "dispatch", None, None),
        ("run_cell", "unit", None, _cell_unit),
        ("run_cell_chunk", "unit", None, _chunk_unit),
        ("run_batch_group", "unit", None, _group_unit),
    ],
    "repro.experiments.figure3": [
        ("random_blob_system", "system", None, None),
        ("configuration_to_json", "system", None, None),
    ],
    "repro.experiments.sweep": [
        ("random_blob_system", "system", None, None),
        ("configuration_to_json", "system", None, None),
    ],
}


# -- recording -----------------------------------------------------------------


class Recorder:
    """In-memory spans of one process, written out per process."""

    def __init__(self, trace_dir: Optional[str], stamp: Dict[str, Any],
                 setup_only: bool = False):
        self.trace_dir = trace_dir
        self.stamp = stamp
        self.setup_only = setup_only
        self.originals: List[Tuple[Any, str, Any]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: List[tuple] = []
        self.local = threading.local()
        self.next_id = 0

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def flush(self) -> None:
        if self.trace_dir is None or not self.spans:
            return
        import json

        line = json.dumps({"pid": os.getpid(), "spans": self.spans})
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(line + "\n")
        self.spans = []

    def write_stamp(self, path: str) -> None:
        import json

        with open(path, "w") as handle:
            json.dump(self.stamp, handle)

    # -- wrappers --

    def first_dispatch(self, fn: Callable, stamp_path: str) -> Callable:
        """Untraced hook: one timestamp at the first ``dispatch_cells`` call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if "dispatch" not in self.stamp:
                self.stamp["dispatch"] = time.monotonic()
                if self.setup_only:
                    self.write_stamp(stamp_path)
                    sys.stdout.flush()
                    os._exit(0)
            return fn(*args, **kwargs)

        return wrapper

    def span(self, fn: Callable, name: str, layer: str,
             before: Optional[Callable], after: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            self.next_id += 1
            sid = self.next_id
            parent = stack[-1][1] if stack else None
            state = before(args) if before is not None else None
            stack.append((layer, sid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = after(args, result, state) if after is not None else None
            self.spans.append((name, layer, start, end, sid, parent, attrs))
            if layer == "unit" and not stack:
                self.flush()
            return result

        return wrapper


class _PatchOnLoad(importlib.abc.MetaPathFinder):
    """Runs ``patch(module)`` right after a listed module executes."""

    def __init__(self, patch: Callable[[Any], None], names):
        self.patch = patch
        self.names = set(names)

    def find_spec(self, name, path, target=None):
        if name not in self.names:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module
        patch = self.patch

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(mode: str, trace_dir: Optional[str], stamp_path: str,
            stamp: Dict[str, Any]) -> Recorder:
    """Install the hooks for ``mode``: ``plain``, ``setup`` or ``trace``.

    ``plain`` and ``setup`` only time the first ``dispatch_cells`` call
    (``setup`` then exits the process); ``trace`` wraps every entry of
    :data:`PATCHES`.
    """
    recorder = Recorder(trace_dir if mode == "trace" else None, stamp,
                        setup_only=mode == "setup")
    if mode == "trace":
        table = PATCHES
    else:
        table = {"repro.experiments.parallel": [("dispatch_cells", "", None, None)]}

    def patch(module) -> None:
        for path, layer, before, after in table[module.__name__]:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            if mode == "trace":
                wrapped = recorder.span(original, path, layer, before, after)
            else:
                wrapped = recorder.first_dispatch(original, stamp_path)
            setattr(owner, attr, wrapped)
            recorder.originals.append((module.__name__, path, original))

    sys.meta_path.insert(0, _PatchOnLoad(patch, table))
    return recorder


def unpatched_bindings(recorder: Recorder) -> List[str]:
    """``module.name`` bindings that still hold an unwrapped original.

    A circular import can hand a caller the original before the hook
    patched it; such a caller would bypass the trace.  The two
    harness-local patches are left out: other modules keep the originals
    of ``random_blob_system``/``configuration_to_json`` on purpose.
    """
    local = {"random_blob_system", "configuration_to_json"}
    originals = {
        id(fn): f"{module}.{path}"
        for module, path, fn in recorder.originals
        if path not in local and "." not in path
    }
    missed = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in originals:
                missed.append(f"{name}.{attr}")
    return missed


# -- analysis ------------------------------------------------------------------


def load_spans(trace_dir: str) -> List[dict]:
    """Every span written under ``trace_dir``, tagged with its pid."""
    import json

    spans: List[dict] = []
    for entry in sorted(os.listdir(trace_dir)):
        if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
            continue
        with open(os.path.join(trace_dir, entry)) as handle:
            for line in handle:
                record = json.loads(line)
                for name, layer, start, end, sid, parent, attrs in record["spans"]:
                    spans.append({
                        "pid": record["pid"], "name": name, "layer": layer,
                        "start": start, "end": end, "id": sid,
                        "parent": parent, "attrs": attrs or {},
                    })
    return spans


def _with_self_times(spans: List[dict]) -> None:
    children: Dict[Tuple[int, int], float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            children[key] = children.get(key, 0.0) + span["end"] - span["start"]
    for span in spans:
        duration = span["end"] - span["start"]
        span["dur"] = duration
        span["self"] = duration - children.get((span["pid"], span["id"]), 0.0)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


#: Cells whose batch-kernel rate and batch-vs-grid speedup are reported
#: by name (the replica-stack cells); 0 on workloads without them.
RATE_CELLS = ("lam4-gamma1", "lam4-gamma4")


def layer_metrics(spans: List[dict], workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced CLI run (see README.md)."""
    _with_self_times(spans)

    def of(layer: str) -> List[dict]:
        return [s for s in spans if s["layer"] == layer]

    def total(items: List[dict], key: str) -> float:
        return sum(s[key] for s in items)

    def attr(items: List[dict], key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in items)

    out: Dict[str, float] = {}
    out["system.build_s"] = total(of("system"), "self")

    dispatch, units = of("dispatch"), of("unit")
    dispatch_s = total(dispatch, "dur")
    busy = total(units, "dur")
    out["experiments.parallel.dispatch_s"] = dispatch_s
    out["experiments.parallel.units"] = len(units)
    out["experiments.parallel.worker_busy_s"] = busy
    out["experiments.parallel.idle_frac"] = (
        1.0 - busy / (workers * dispatch_s) if dispatch_s > 0 else 0.0
    )
    out["experiments.parallel.unit_self_s"] = total(units, "self")

    chain = of("chain")
    chain_s, steps = total(chain, "self"), attr(chain, "steps")
    out["core.separation_chain.busy_s"] = chain_s
    out["core.separation_chain.steps"] = steps
    out["core.separation_chain.steps_per_s"] = _rate(steps, chain_s)
    out["core.separation_chain.accept_ratio"] = _rate(attr(chain, "accepted"), steps)

    batch = of("batch")
    batch_s, replica_steps = total(batch, "self"), attr(batch, "steps")
    out["core.batch_kernel.busy_s"] = batch_s
    out["core.batch_kernel.replica_steps"] = replica_steps
    out["core.batch_kernel.replica_steps_per_s"] = _rate(replica_steps, batch_s)
    for cell in RATE_CELLS:
        mine = [s for s in batch if s["attrs"].get("cell") == cell]
        out[f"core.batch_kernel.replica_steps_per_s.{cell}"] = _rate(
            attr(mine, "steps"), total(mine, "self")
        )
    out["core.batch_kernel.accept_ratio"] = _rate(
        attr(batch, "accepted"), replica_steps
    )

    diag = of("diag")
    out["obs.convergence.busy_s"] = total(diag, "self")
    out["obs.convergence.verdicts"] = attr(diag, "verdicts")
    out["obs.convergence.executed_frac"] = _rate(
        attr(units, "executed"), attr(units, "budget")
    )

    codec = of("codec")
    encode = [s for s in codec if s["name"].startswith("encode")]
    decode = [s for s in codec if s["name"].startswith("decode")]
    frames = [s for s in codec if s["name"] == "encode_state"]
    out["util.codec.encode_s"] = total(encode, "self")
    out["util.codec.decode_s"] = total(decode, "self")
    out["util.codec.bytes"] = attr(codec, "bytes")
    out["util.codec.state_frames"] = len(frames)
    out["util.codec.state_bytes"] = attr(frames, "bytes")

    io = of("io")
    out["util.serialization.write_s"] = total(io, "self")
    out["util.serialization.writes"] = len(io)
    out["util.serialization.bytes_written"] = attr(io, "bytes")

    phases, metric = of("phases"), of("metric")
    out["experiments.phases.busy_s"] = total(phases, "self")
    out["experiments.phases.calls"] = len(phases)
    out["analysis.separation_metric.busy_s"] = total(metric, "self")
    out["analysis.separation_metric.mincut_searches"] = len(metric)
    return out


def chain_rates_by_cell(spans: List[dict]) -> Dict[str, float]:
    """Scalar-kernel steps per second of chain self time, per (λ, γ) cell."""
    _with_self_times(spans)
    steps: Dict[str, float] = {}
    seconds: Dict[str, float] = {}
    for span in spans:
        if span["layer"] == "chain":
            cell = span["attrs"].get("cell")
            steps[cell] = steps.get(cell, 0.0) + span["attrs"].get("steps", 0)
            seconds[cell] = seconds.get(cell, 0.0) + span["self"]
    return {cell: _rate(steps[cell], seconds[cell]) for cell in steps}


def parent_span_seconds(spans: List[dict], pid: int) -> float:
    """Wall time covered by the top-level spans of the CLI process."""
    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["pid"] == pid and s["parent"] is None
    )
