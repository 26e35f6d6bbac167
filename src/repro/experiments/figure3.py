"""Experiment E2 — Figure 3: the (λ, γ) phase diagram.

The paper starts every cell from the *same* initial configuration (the
leftmost frame of Figure 2) and runs 50,000,000 iterations per (λ, γ)
pair, observing four phases: compressed-separated,
compressed-integrated, expanded-separated, and expanded-integrated.

This regenerator sweeps a (λ, γ) grid spanning all four phases from a
shared initial configuration and classifies every endpoint.  Iteration
counts are scaled down by default (the phases establish themselves well
before the paper's 50M steps at n = 100).

Grid cells execute through :mod:`repro.experiments.parallel`, so the
diagram can fan out over a process pool (``backend="process"``,
``workers=N``), checkpoint completed cells, and ``resume`` a killed
run — with phases and metrics identical to the serial backend for the
same seed.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.separation_metric import candidate_certificates
from repro.experiments.parallel import (
    DEFAULT_CODEC,
    CellTask,
    ProgressCallback,
    dispatch_cells,
    group_by_cell,
)
from repro.experiments.phases import PhaseThresholds, classify_phase, phase_metrics
from repro.experiments.resilience import FailurePolicy, RetryPolicy, surviving
from repro.obs import Instrumentation, StopCondition, aggregate_summaries
from repro.system.configuration import ParticleSystem
from repro.system.initializers import random_blob_system
from repro.util.rng import RngLike, seed_entropy
from repro.util.serialization import configuration_to_json

#: Grid spanning the four phases (γ values straddle both proven regimes;
#: λ = 0.5 exposes the expanded-separated corner, λγ small but γ large).
DEFAULT_LAMBDAS = (0.5, 1.0, 2.0, 4.0, 6.0)
DEFAULT_GAMMAS = (0.8, 1.0, 2.0, 4.0, 6.0)

#: Iterations per cell in the paper.
PAPER_ITERATIONS = 50_000_000

#: Abbreviations used in the printed grid.  ``failed`` marks a cell
#: whose replicas were all quarantined by the resilience layer.
PHASE_ABBREVIATIONS = {
    "compressed-separated": "CS",
    "compressed-integrated": "CI",
    "expanded-separated": "ES",
    "expanded-integrated": "EI",
    "failed": "??",
}


@dataclass
class Figure3Result:
    """Outcome of a Figure 3 regeneration."""

    lambdas: List[float]
    gammas: List[float]
    iterations: int
    phases: Dict[Tuple[float, float], str]
    metrics: Dict[Tuple[float, float], Dict[str, float]]
    #: Per-cell folded convergence summaries (``None`` values when the
    #: run sampled no diagnostics or every replica was quarantined);
    #: a cell's ``low_ess`` flag questions its phase classification.
    diagnostics: Dict[Tuple[float, float], Optional[dict]] = field(
        default_factory=dict
    )

    def grid_table(self) -> str:
        """The phase diagram as a text grid (rows = λ, columns = γ)."""
        header = "lambda\\gamma  " + "  ".join(
            f"{gamma:>6.2f}" for gamma in self.gammas
        )
        lines = [header, "-" * len(header)]
        for lam in self.lambdas:
            cells = [
                PHASE_ABBREVIATIONS[self.phases[(lam, gamma)]].rjust(6)
                for gamma in self.gammas
            ]
            lines.append(f"{lam:>12.2f}  " + "  ".join(cells))
        lines.append(
            "(CS=compressed-separated, CI=compressed-integrated, "
            "ES=expanded-separated, EI=expanded-integrated, ??=failed)"
        )
        return "\n".join(lines)

    def phase_of(self, lam: float, gamma: float) -> str:
        """Phase label of one grid cell."""
        return self.phases[(lam, gamma)]


def run_figure3(
    n: int = 100,
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    gammas: Sequence[float] = DEFAULT_GAMMAS,
    iterations: int = 1_000_000,
    swaps: bool = True,
    seed: RngLike = 2018,
    thresholds: PhaseThresholds = PhaseThresholds(),
    initial: Optional[ParticleSystem] = None,
    replicas: int = 1,
    backend: str = "serial",
    workers: Optional[int] = None,
    checkpoint_dir: Optional[os.PathLike] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    obs: Optional[Instrumentation] = None,
    kernel: str = "auto",
    replicas_per_task: int = 0,
    retry: Optional[RetryPolicy] = None,
    failure: Optional[FailurePolicy] = None,
    fault_spec: Optional[dict] = None,
    codec: str = DEFAULT_CODEC,
    adaptive: Optional[StopCondition] = None,
    warm_start: str = "off",
    state_every: int = 0,
    drain_timeout: float = 30.0,
) -> Figure3Result:
    """Regenerate the Figure 3 phase grid.

    Every cell starts from a copy of the same initial configuration (as
    in the paper) and runs ``iterations`` steps of the chain with its own
    (λ, γ).  With ``replicas > 1`` each cell runs several independent
    seeds and the reported phase is the majority vote (ties broken
    toward the first run), making the diagram robust to single-run
    fluctuations near phase boundaries; metrics are averaged.

    Integer seeds keep their historical per-replica derivation (``seed
    + 7919·replica``) so existing diagrams reproduce exactly; other
    ``RngLike`` seeds contribute fresh entropy instead of silently
    collapsing to zero.  ``backend``/``workers``/``checkpoint_dir``/
    ``resume``/``progress``/``obs`` are forwarded to the parallel
    execution engine; with ``obs`` attached the grid is wrapped in a
    ``figure3`` trace span and every cell reports wall-time and
    throughput (see :mod:`repro.obs`).  ``kernel`` picks the step
    kernel per cell without affecting trajectories or checkpoints.

    ``retry``/``failure`` configure the resilience layer.  Under
    ``FailurePolicy(mode="quarantine")`` failed replicas are dropped
    from the vote and metric averages; a cell whose replicas all failed
    is reported with phase ``"failed"`` (``??`` in the printed grid).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be positive, got {replicas}")
    if initial is None:
        initial = random_blob_system(n, seed=seed)
    base_seed = seed_entropy(seed)
    initial_json = configuration_to_json(initial, sort_nodes=False)

    cells = [(lam, gamma) for lam in lambdas for gamma in gammas]
    tasks = [
        CellTask(
            lam=lam,
            gamma=gamma,
            replica=replica,
            seed=base_seed + 7919 * replica,
            steps=iterations,
            swaps=swaps,
            system_json=initial_json,
            label=f"lam={lam} gamma={gamma}",
            kernel=kernel,
        )
        for lam, gamma in cells
        for replica in range(replicas)
    ]
    if obs is not None:
        obs = obs.bind(run="figure3")
        obs.log(
            "figure3.start",
            cells=len(cells),
            replicas=replicas,
            iterations=iterations,
            backend=backend,
        )
    with obs.span("figure3", cells=len(cells)) if obs is not None else (
        nullcontext()
    ):
        results = dispatch_cells(
            tasks,
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
            adaptive=adaptive,
            warm_start=warm_start,
            state_every=state_every,
            drain_timeout=drain_timeout,
        )
    if obs is not None:
        obs.log("figure3.done", cells=len(cells), replicas=replicas)

    phases: Dict[Tuple[float, float], str] = {}
    metrics: Dict[Tuple[float, float], Dict[str, float]] = {}
    diagnostics: Dict[Tuple[float, float], Optional[dict]] = {}
    for key, cell_results in zip(cells, group_by_cell(results, replicas)):
        votes: List[str] = []
        accumulated: Dict[str, float] = {}
        survivors = surviving(cell_results)
        for result in survivors:
            certificates = candidate_certificates(result.system)
            votes.append(classify_phase(result.system, thresholds, certificates))
            for name, value in phase_metrics(result.system, certificates).items():
                accumulated[name] = accumulated.get(name, 0.0) + value
        phases[key] = max(votes, key=votes.count) if votes else "failed"
        metrics[key] = {
            name: value / len(survivors) for name, value in accumulated.items()
        }
        diagnostics[key] = aggregate_summaries(
            getattr(result, "diag", None) for result in survivors
        )
    return Figure3Result(
        lambdas=list(lambdas),
        gammas=list(gammas),
        iterations=iterations,
        phases=phases,
        metrics=metrics,
        diagnostics=diagnostics,
    )
