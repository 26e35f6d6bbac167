"""E12 — engineering throughput of the simulation engines.

Measures steps/second of the optimized centralized chain, the
locality-enforcing distributed runner, and a concurrent round, plus the
incremental-counter advantage over recomputation.  These are classic
pytest-benchmark microbenchmarks (multiple rounds, statistics reported
in the benchmark table).

The kernel comparison additionally exports a machine-readable perf
baseline, ``benchmarks/results/BENCH_throughput.json`` (versioned
payload envelope; see ``docs/performance.md`` for the schema), and
*asserts* two floors at n = 100:

- grid over dict (scalar steps/sec): at least
  ``REPRO_KERNEL_SPEEDUP_MIN`` (default 1.5 — chosen to absorb
  shared-runner noise below the ~2x the kernel delivers on quiet
  hardware);
- batch *aggregate replica throughput* at R = 32 over the grid
  kernel's scalar throughput: at least ``REPRO_BATCH_SPEEDUP_MIN``
  (default 2.5, below the ~3x+ the replica-batched NumPy kernel
  delivers on quiet hardware).

The guards run at λ = γ = 4, the separated regime where acceptance is
about 0.03.  The payload also tracks one unguarded high-acceptance
pair at λ = 4, γ = 1 (acceptance about 0.45, the integrated regime),
n = 100: the grid kernel and the batch kernel at R = 16.  Each batch
round applies at most one accepted step per replica, so this regime
sets the batch kernel's floor.

Like the observability overhead guard, the assertions use best-of-N
wall timing so they also run under ``--benchmark-disable`` in CI.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import RESULTS_DIR
from repro.core.batch_kernel import BatchKernel
from repro.core.separation_chain import SeparationChain
from repro.distributed import ConcurrentRunner, DistributedRunner
from repro.system.initializers import hexagon_system
from repro.util.serialization import save_payload

STEPS = 20_000

#: System sizes of the kernel comparison.
KERNEL_SIZES = (25, 100, 400)

#: Scalar kernel backends compared by the perf baseline.
KERNEL_BACKENDS = ("dict", "grid")

#: Replica count of the batch-kernel rows (matches the acceptance
#: criterion: aggregate replica throughput at n = 100, R = 32).
BATCH_REPLICAS = 32

#: Default floor on grid/dict steps-per-second at n=100 (override with
#: the ``REPRO_KERNEL_SPEEDUP_MIN`` environment variable).
DEFAULT_SPEEDUP_MIN = 1.5

#: Default floor on batch-aggregate/grid throughput at n=100, R=32
#: (override with ``REPRO_BATCH_SPEEDUP_MIN``).
DEFAULT_BATCH_SPEEDUP_MIN = 2.5

#: Schema version of the BENCH_throughput.json payload body (the
#: envelope's ``format_version`` is versioned separately).  Version 2
#: adds the batch-kernel rows (``replica_steps_per_sec``), the numpy
#: version, and the git commit hash; version 3 the ``high_acceptance``
#: section.
BENCH_VERSION = 3

#: The tracked high-acceptance point: (λ, γ, n, batch replicas, steps).
#: Steps match one replica-stack cell of the end-to-end benchmark.
HIGH_ACCEPTANCE = dict(lam=4.0, gamma=1.0, n=100, replicas=16, steps=30_000)


def _git_commit() -> str:
    """Short commit hash of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _kernel_chain(
    n: int, kernel: str, lam: float = 4.0, gamma: float = 4.0
) -> SeparationChain:
    system = hexagon_system(n, seed=1)
    return SeparationChain(system, lam=lam, gamma=gamma, seed=1, backend=kernel)


#: Steps per timed round of the speedup guard.  Longer than the
#: pytest-benchmark rows so each timing is tens of milliseconds —
#: enough for the best-of protocol to shake off scheduler noise.
GUARD_STEPS = 60_000


def _steps_per_sec(
    n: int,
    kernel: str,
    steps: int,
    rounds: int = 5,
    lam: float = 4.0,
    gamma: float = 4.0,
) -> float:
    """Best-of-``rounds`` steps/second (robust to scheduler noise).

    A fresh chain per round keeps the workload identical across rounds
    and kernels: same seed, same trajectory, same proposal mix.
    """
    best = float("inf")
    for _ in range(rounds):
        chain = _kernel_chain(n, kernel, lam, gamma)
        chain.run(2_000)  # warm caches and the arena build
        start = time.perf_counter()
        chain.run(steps)
        best = min(best, time.perf_counter() - start)
    return steps / best


#: Per-replica steps per timed round of the batch guard; at R = 32 each
#: round advances 32x this many aggregate steps, so a round lasts a few
#: hundred milliseconds — long enough to amortize the vectorized
#: pipeline's per-call overheads the way production sweeps do.
BATCH_GUARD_STEPS = 60_000


def _batch_replica_steps_per_sec(
    n: int,
    replicas: int,
    steps: int,
    rounds: int = 3,
    lam: float = 4.0,
    gamma: float = 4.0,
) -> float:
    """Best-of-``rounds`` *aggregate* replica-steps/second.

    The batch kernel advances all ``replicas`` trajectories in lock
    step; its unit of useful work is a replica-step, so throughput is
    ``steps * replicas / wall``.
    """
    best = float("inf")
    for _ in range(rounds):
        system = hexagon_system(n, seed=1)
        kernel = BatchKernel(system, lam, gamma, replicas=replicas, seed=1)
        kernel.run(2_000)  # warm the arena, tables, and RNG buffers
        start = time.perf_counter()
        kernel.run(steps)
        best = min(best, time.perf_counter() - start)
    return steps * replicas / best


def test_separation_chain_throughput(benchmark):
    system = hexagon_system(100, seed=1)
    chain = SeparationChain(system, lam=4.0, gamma=4.0, seed=1)
    benchmark(chain.run, STEPS)
    assert system.is_connected()


def test_separation_chain_step_loop_throughput(benchmark):
    """Reference path: per-step RNG draws, no batching.

    ``run`` pre-draws uniform variates in chunks and inlines the move
    loop; this benchmark drives the same chain through ``step()`` so
    the table shows what the batched fast path buys.
    """
    system = hexagon_system(100, seed=1)
    chain = SeparationChain(system, lam=4.0, gamma=4.0, seed=1)

    def step_loop(steps):
        step = chain.step
        for _ in range(steps):
            step()

    benchmark(step_loop, STEPS)
    assert system.is_connected()


def test_separation_chain_no_swaps_throughput(benchmark):
    system = hexagon_system(100, seed=1)
    chain = SeparationChain(system, lam=4.0, gamma=4.0, swaps=False, seed=1)
    benchmark(chain.run, STEPS)


def test_distributed_runner_throughput(benchmark):
    system = hexagon_system(100, seed=1)
    runner = DistributedRunner(system, lam=4.0, gamma=4.0, seed=1)
    benchmark(runner.run, STEPS // 10)


def test_concurrent_round_throughput(benchmark):
    system = hexagon_system(100, seed=1)
    runner = ConcurrentRunner(system, lam=4.0, gamma=4.0, round_size=25, seed=1)
    benchmark(runner.run, 40)


def test_counter_recompute_cost(benchmark):
    """The O(n) recount the incremental counters avoid paying per step."""
    system = hexagon_system(100, seed=1)
    benchmark(system.recompute_counters)


def test_exact_perimeter_walk_cost(benchmark):
    """Boundary-walk perimeter vs the O(1) identity used in the loop."""
    system = hexagon_system(100, seed=1)
    benchmark(system.perimeter, True)


# ----------------------------------------------------------------------
# Kernel comparison: dict vs grid vs batch (perf baseline + guards)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", KERNEL_SIZES)
@pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
def test_kernel_throughput(benchmark, n, kernel):
    """Side-by-side pytest-benchmark rows per (size, kernel)."""
    chain = _kernel_chain(n, kernel)
    chain.run(2_000)  # build the arena outside the measured region
    benchmark(chain.run, STEPS)
    assert chain.system.is_connected()


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_batch_kernel_throughput(benchmark, n):
    """pytest-benchmark row for the replica-batched kernel at R = 32.

    Note the unit mismatch against the scalar rows above: one call here
    advances ``STEPS`` steps in *each* of the 32 replicas, so divide
    the reported time by 32 before comparing per-replica cost.
    """
    system = hexagon_system(n, seed=1)
    kernel = BatchKernel(system, 4.0, 4.0, replicas=BATCH_REPLICAS, seed=1)
    kernel.run(2_000)
    benchmark(kernel.run, STEPS)
    check = kernel.export_system(0)
    assert check.is_connected()


def test_kernel_speedup_guard_and_baseline():
    """Measure all kernels, export BENCH_throughput.json, assert floors.

    The exported payload is the machine-readable perf trajectory future
    PRs diff against: per-(n, kernel) steps/sec (aggregate
    ``replica_steps_per_sec`` for the batch rows) plus per-size
    speedups, wrapped in the repo's versioned payload envelope.
    """
    threshold = float(
        os.environ.get("REPRO_KERNEL_SPEEDUP_MIN", DEFAULT_SPEEDUP_MIN)
    )
    batch_threshold = float(
        os.environ.get("REPRO_BATCH_SPEEDUP_MIN", DEFAULT_BATCH_SPEEDUP_MIN)
    )
    cells = []
    speedups = {}
    batch_speedups = {}
    for n in KERNEL_SIZES:
        rates = {
            kernel: _steps_per_sec(n, kernel, GUARD_STEPS)
            for kernel in KERNEL_BACKENDS
        }
        for kernel, rate in rates.items():
            cells.append(
                {
                    "n": n,
                    "kernel": kernel,
                    "steps": GUARD_STEPS,
                    "steps_per_sec": rate,
                }
            )
        batch_rate = _batch_replica_steps_per_sec(
            n, BATCH_REPLICAS, BATCH_GUARD_STEPS
        )
        cells.append(
            {
                "n": n,
                "kernel": "batch",
                "replicas": BATCH_REPLICAS,
                "steps": BATCH_GUARD_STEPS,
                "replica_steps_per_sec": batch_rate,
            }
        )
        speedups[str(n)] = rates["grid"] / rates["dict"]
        batch_speedups[str(n)] = batch_rate / rates["grid"]

    point = HIGH_ACCEPTANCE
    where = dict(lam=point["lam"], gamma=point["gamma"])
    high_grid = _steps_per_sec(point["n"], "grid", point["steps"], **where)
    high_batch = _batch_replica_steps_per_sec(
        point["n"], point["replicas"], point["steps"], **where
    )
    high_acceptance = {
        **point,
        "cells": [
            {"n": point["n"], "kernel": "grid", "steps": point["steps"],
             "steps_per_sec": high_grid},
            {"n": point["n"], "kernel": "batch",
             "replicas": point["replicas"], "steps": point["steps"],
             "replica_steps_per_sec": high_batch},
        ],
        "batch_speedup": high_batch / high_grid,
    }

    payload = {
        "benchmark": "kernel_throughput",
        "version": BENCH_VERSION,
        "lam": 4.0,
        "gamma": 4.0,
        "steps": GUARD_STEPS,
        "rounds": 5,
        "timing": "best-of-rounds wall clock",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": sys.platform,
        "git_commit": _git_commit(),
        "batch_replicas": BATCH_REPLICAS,
        "cells": cells,
        "speedups": speedups,
        "batch_speedups": batch_speedups,
        "high_acceptance": high_acceptance,
        "speedup_min": threshold,
        "batch_speedup_min": batch_threshold,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    save_payload(payload, RESULTS_DIR / "BENCH_throughput.json")

    table = [
        f"n={cell['n']:>4} kernel={cell['kernel']:<5} "
        f"{cell.get('steps_per_sec', cell.get('replica_steps_per_sec')):>12,.0f}"
        f" {'replica-' if cell['kernel'] == 'batch' else ''}steps/s"
        for cell in cells
    ]
    summary = "\n".join(
        table
        + [
            f"grid/dict speedup n={n}: {speedups[str(n)]:.2f}x"
            for n in KERNEL_SIZES
        ]
        + [
            f"batch/grid speedup n={n} (R={BATCH_REPLICAS}): "
            f"{batch_speedups[str(n)]:.2f}x"
            for n in KERNEL_SIZES
        ]
        + [
            f"gamma={point['gamma']:g} n={point['n']}: grid "
            f"{high_grid:,.0f} steps/s, batch (R={point['replicas']}) "
            f"{high_batch:,.0f} replica-steps/s, "
            f"{high_acceptance['batch_speedup']:.2f}x"
        ]
    )
    print(f"\n=== kernel_throughput ===\n{summary}")

    measured = speedups["100"]
    assert measured >= threshold, (
        f"grid kernel speedup {measured:.2f}x at n=100 is below the "
        f"{threshold:.2f}x floor (REPRO_KERNEL_SPEEDUP_MIN overrides); "
        f"see BENCH_throughput.json for the full measurement"
    )
    batch_measured = batch_speedups["100"]
    assert batch_measured >= batch_threshold, (
        f"batch kernel aggregate speedup {batch_measured:.2f}x at n=100, "
        f"R={BATCH_REPLICAS} is below the {batch_threshold:.2f}x floor "
        f"(REPRO_BATCH_SPEEDUP_MIN overrides); see BENCH_throughput.json "
        f"for the full measurement"
    )
