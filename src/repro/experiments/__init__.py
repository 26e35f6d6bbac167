"""Experiment harness: regenerators for the paper's figures and lemmas.

* :mod:`repro.experiments.figure2` — time evolution at λ = γ = 4 (E1).
* :mod:`repro.experiments.figure3` — the (λ, γ) phase grid (E2).
* :mod:`repro.experiments.phases` — the four-phase classifier
  (compressed/expanded × separated/integrated).
* :mod:`repro.experiments.lemmas` — executable checks of Lemmas 1 and 2.
* :mod:`repro.experiments.sweep` — generic parameter sweeps.
* :mod:`repro.experiments.parallel` — process-pool execution backend
  with per-cell checkpointing and resume.
* :mod:`repro.experiments.recorder` — time-series recording.
* :mod:`repro.experiments.render` — ASCII and SVG configuration renders.
"""

from repro.experiments.parallel import (
    CellResult,
    CellTask,
    dispatch_cells,
    execute_cells,
    resolve_backend,
    run_batch_group,
    run_cell,
)
from repro.experiments.phases import PhaseThresholds, classify_phase
from repro.experiments.recorder import RunRecorder
from repro.experiments.render import render_ascii, render_svg
from repro.experiments.figure2 import (
    Figure2Result,
    Figure2Trace,
    measure_figure2,
    run_figure2,
)
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.sweep import SweepPoint, run_sweep
from repro.experiments.lemmas import (
    check_lemma1_counting_bound,
    check_lemma2_constructive_bound,
)
from repro.experiments.scaling import (
    interface_scaling_exponent,
    scaling_study,
    scaling_table,
)

__all__ = [
    "CellResult",
    "CellTask",
    "dispatch_cells",
    "execute_cells",
    "resolve_backend",
    "run_batch_group",
    "run_cell",
    "classify_phase",
    "PhaseThresholds",
    "RunRecorder",
    "render_ascii",
    "render_svg",
    "run_figure2",
    "Figure2Result",
    "measure_figure2",
    "Figure2Trace",
    "run_figure3",
    "Figure3Result",
    "run_sweep",
    "SweepPoint",
    "check_lemma1_counting_bound",
    "check_lemma2_constructive_bound",
    "scaling_study",
    "scaling_table",
    "interface_scaling_exponent",
]
