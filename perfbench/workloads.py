"""The benchmark's workloads: the CLI command each runs and its output check.

Every workload is one ``python -m repro`` invocation on 2 workers.  The
output check never compares transcripts bit for bit: it checks the
exit code, that every cell is present and none is quarantined, and
physical properties that any correct kernel reproduces (bands recorded
in ``reference.json`` by ``perfbench/calibrate.py``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

WORKERS = 2
REFERENCE = Path(__file__).with_name("reference.json")

#: Figure 3 corners (Cannon et al.) as regular expressions over the
#: printed phase: E/C = expanded/compressed, I/S = integrated/separated.
#: The paper's phases are EI, ES, CI and CS.  Two corners sit near a
#: boundary that 200k steps per cell does not always settle, so each is
#: checked on its robust axis only: λ=0.5, γ=6 came out CS on one seed
#: (α dipped under the compression cutoff), and λ=γ=6 came out CI on 1
#: seed in 38 at 200k and at 400k steps (a two-domain state).
CORNERS = {
    (0.5, 0.8): "EI",
    (0.5, 6.0): ".S",
    (6.0, 0.8): "CI",
    (6.0, 6.0): "C.",
}

PHASE_GRID_STEPS = 200_000
REPLICA_STACK_STEPS = 30_000
REPLICA_STACK_REPLICAS = 16
ADAPTIVE_BUDGET = 1_500_000
ADAPTIVE_DIAG_EVERY = 5_000
ADAPTIVE_STATE_EVERY = 20_000
ADAPTIVE_ESS_TARGET = 200.0  # the CLI's default --ess-target


@dataclass
class Outcome:
    """What one CLI run's output check found."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Per-cell observables, recorded by calibrate.py.
    values: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def fail(self, cells: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + cells)
        self.problems.append(problem)


@dataclass
class Workload:
    name: str
    cells: int
    argv: Callable[[int, Path], List[str]]
    check: Callable[[str, Path, Outcome], None]


def cell_name(lam: float, gamma: float) -> str:
    return f"lam{lam:g}-gamma{gamma:g}"


def reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _number(text: str) -> Optional[float]:
    return None if text == "n/a" else float(text)


def parse_sweep(stdout: str) -> Dict[str, Dict[str, object]]:
    """Rows of a ``repro sweep`` table, keyed by cell name."""
    rows: Dict[str, Dict[str, object]] = {}
    for line in stdout.splitlines():
        tokens = line.split()
        if len(tokens) < 5 or tokens[0] == "lambda":
            continue
        try:
            lam, gamma = float(tokens[0]), float(tokens[1])
        except ValueError:
            continue
        rows[cell_name(lam, gamma)] = {
            "alpha": _number(tokens[2]),
            "hetero_density": _number(tokens[3]),
            "phase": tokens[-1],
        }
    return rows


def parse_grid(stdout: str) -> Dict[tuple, str]:
    """Cells of a ``repro figure3`` grid: (λ, γ) -> phase abbreviation."""
    lines = stdout.splitlines()
    gammas: List[float] = []
    grid: Dict[tuple, str] = {}
    for line in lines:
        if line.startswith("lambda\\gamma"):
            gammas = [float(v) for v in line.split()[1:]]
            continue
        tokens = line.split()
        if not gammas or len(tokens) != len(gammas) + 1:
            continue
        try:
            lam = float(tokens[0])
        except ValueError:
            continue
        for gamma, phase in zip(gammas, tokens[1:]):
            grid[(lam, gamma)] = phase
    return grid


def _checkpoint_files(directory: Path) -> Dict[str, List[Path]]:
    files = sorted(directory.iterdir()) if directory.is_dir() else []
    return {
        "cells": [p for p in files if re.fullmatch(r"cell-[0-9a-f]+\.bin", p.name)],
        "state": [p for p in files if p.name.endswith(".state.bin")],
        "failures": [p for p in files if p.name == "failures.json"],
    }


def _check_checkpoints(ckpt: Path, out: Outcome) -> Dict[str, List[Path]]:
    """One committed checkpoint per cell and no quarantine manifest."""
    files = _checkpoint_files(ckpt)
    missing = out.attempted - len(files["cells"])
    if missing > 0:
        out.fail(missing, f"{missing} cells have no checkpoint")
    if files["failures"]:
        out.fail(out.attempted, "failures.json written (cells quarantined)")
    return files


def _check_phase_grid(stdout: str, ckpt: Path, out: Outcome) -> None:
    grid = parse_grid(stdout)
    if len(grid) != out.attempted:
        out.fail(out.attempted - len(grid), f"{len(grid)} of {out.attempted} cells printed")
    quarantined = [cell for cell, phase in grid.items() if phase == "??"]
    if quarantined:
        out.fail(len(quarantined), f"quarantined cells {quarantined}")
    for cell, expected in CORNERS.items():
        phase = grid.get(cell)
        if phase not in (None, "??") and not re.fullmatch(expected, phase):
            out.fail(1, f"corner {cell} is {phase}, expected {expected}")
    _check_checkpoints(ckpt, out)
    out.values = {
        cell_name(*cell): {"phase": phase} for cell, phase in grid.items()
    }


def _check_replica_stack(stdout: str, ckpt: Path, out: Outcome) -> None:
    rows = parse_sweep(stdout)
    per_cell = REPLICA_STACK_REPLICAS
    for cell in ("lam4-gamma1", "lam4-gamma4"):
        row = rows.get(cell)
        if row is None or row["phase"] == "failed" or row["hetero_density"] is None:
            out.fail(per_cell, f"cell {cell} missing or failed")
    out.values = {
        cell: {"hetero_density": row["hetero_density"]} for cell, row in rows.items()
    }
    if out.failed:
        return
    gap = rows["lam4-gamma1"]["hetero_density"] - rows["lam4-gamma4"]["hetero_density"]
    margin = reference()["replica-stack"]["min_gap"]
    if gap < margin:
        out.fail(per_cell, f"h/e gap gamma1-gamma4 {gap:.3f} below {margin}")


def _check_durable_adaptive(stdout: str, ckpt: Path, out: Outcome) -> None:
    from repro.util.codec import peek_checkpoint_meta

    rows = parse_sweep(stdout)
    bands = reference()["durable-adaptive"]["bands"]
    for cell, band in bands.items():
        row = rows.get(cell)
        if row is None or row["phase"] == "failed":
            out.fail(1, f"cell {cell} missing or failed")
            continue
        for name, (low, high) in band.items():
            value = row[name]
            if value is None or not low <= value <= high:
                out.fail(1, f"{cell} {name}={value} outside [{low}, {high}]")
                break
    out.values = {
        cell: {"alpha": row["alpha"], "hetero_density": row["hetero_density"]}
        for cell, row in rows.items()
    }
    files = _check_checkpoints(ckpt, out)
    if files["state"]:
        out.fail(len(files["state"]), "state frames left after commit")
    cold = 0
    stops: Dict[str, int] = {}
    for path in files["cells"]:
        meta = peek_checkpoint_meta(path.read_bytes())
        reason, ess = meta.get("stop_reason"), meta.get("ess_at_stop")
        stops[reason] = stops.get(reason, 0) + 1
        cold += not meta.get("warm_parent")
        if meta.get("budget_steps") != ADAPTIVE_BUDGET:
            out.fail(1, f"{path.name}: budget {meta.get('budget_steps')}")
        elif reason == "converged":
            if ess is None or ess < ADAPTIVE_ESS_TARGET or meta["iterations"] > ADAPTIVE_BUDGET:
                out.fail(1, f"{path.name}: converged with ess {ess}")
        elif reason == "budget":
            if meta["iterations"] != ADAPTIVE_BUDGET:
                out.fail(1, f"{path.name}: budget stop at {meta['iterations']}")
        else:
            out.fail(1, f"{path.name}: stop reason {reason!r} under --adaptive")
    if files["cells"] and cold != 1:
        out.fail(abs(cold - 1), f"{cold} cold cells under --warm-start ladder (want 1)")
    out.values["stops"] = stops


def _phase_grid(seed: int, ckpt: Path) -> List[str]:
    return [
        "figure3", "-n", "100", "--iterations", str(PHASE_GRID_STEPS),
        "--workers", str(WORKERS), "--seed", str(seed), "--checkpoint", str(ckpt),
    ]


def replica_stack_argv(kernel: str) -> Callable[[int, Path], List[str]]:
    def argv(seed: int, ckpt: Path) -> List[str]:
        return [
            "sweep", "--lambdas", "4", "--gammas", "1", "4",
            "--replicas", str(REPLICA_STACK_REPLICAS), "--kernel", kernel,
            "-n", "100", "--iterations", str(REPLICA_STACK_STEPS),
            "--workers", str(WORKERS), "--seed", str(seed),
        ]

    return argv


def _durable_adaptive(seed: int, ckpt: Path) -> List[str]:
    return [
        "sweep", "--lambdas", "1", "2", "4", "--gammas", "1", "2", "4",
        "--adaptive", "--warm-start", "ladder",
        "--diag-every", str(ADAPTIVE_DIAG_EVERY),
        "--state-every", str(ADAPTIVE_STATE_EVERY),
        "--checkpoint", str(ckpt), "-n", "100",
        "--iterations", str(ADAPTIVE_BUDGET),
        "--workers", str(WORKERS), "--seed", str(seed),
    ]


WORKLOADS: Dict[str, Workload] = {
    "phase-grid": Workload("phase-grid", 25, _phase_grid, _check_phase_grid),
    "replica-stack": Workload(
        "replica-stack", 2 * REPLICA_STACK_REPLICAS,
        replica_stack_argv("batch"), _check_replica_stack,
    ),
    "durable-adaptive": Workload(
        "durable-adaptive", 9, _durable_adaptive, _check_durable_adaptive,
    ),
}

#: The replica-stack cells on the scalar kernel: the traced run's
#: reference leg for ``core.batch_kernel.speedup_vs_grid.<cell>``.
GRID_LEG = Workload(
    "replica-stack-grid", 2 * REPLICA_STACK_REPLICAS,
    replica_stack_argv("grid"), _check_replica_stack,
)


def check(workload: Workload, code: int, stdout: str, ckpt: Path) -> Outcome:
    """Run the workload's output check; a non-zero exit fails every cell."""
    out = Outcome(attempted=workload.cells)
    if code != 0:
        out.fail(workload.cells, f"exit code {code}")
        return out
    workload.check(stdout, ckpt, out)
    return out
