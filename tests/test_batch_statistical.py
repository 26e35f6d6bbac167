"""Statistical-equivalence suite: batch kernel vs. the scalar dict kernel.

The replica-batched NumPy kernel (:mod:`repro.core.batch_kernel`) consumes
its randomness through per-replica ``numpy`` PCG64 streams, while the
scalar kernels draw from ``random.Random``; the two are therefore
*statistically* equivalent samplers of the same Markov chain, not bit-wise
identical ones.  This file pins down both halves of that claim:

**Exactness tests** — properties that must hold bit-for-bit, over runs
long enough to cross several proposal-stream refills (one per
``RNG_CHUNK`` steps; refills carry the unconsumed tail over, so a
replica's stream is a pure function of its seed):

- window invariance: the speculative window is an implementation
  detail — ``window=1`` (the sequential reference, which evaluates one
  proposal at a time), a narrow cap and the default cap on the adaptive
  width produce identical trajectories for the same seeds, in both
  acceptance regimes, with and without swaps;
- chunking invariance: ``run(a); run(b)`` equals ``run(a + b)``, so a
  batch group that stops adaptively at iteration ``X`` is a bit-exact
  prefix of a fixed ``run(X)``;
- grouping invariance: one R-replica kernel seeded with a per-replica
  seed list equals R independent single-replica kernels — the property
  that makes the engine's batch-group work units
  (:func:`~repro.experiments.parallel.execute_cells` with
  ``kernel="batch"`` tasks) sound;
- the incremental edge/heterogeneous-edge counters agree with
  from-scratch recomputation on exported systems.

**Statistical tests** — ensemble moments of the paper's observables
(perimeter, heterogeneous edges, compression ratio :math:`\\alpha`,
largest monochromatic cluster fraction) must match the dict kernel within
tolerance bands at two :math:`(\\lambda, \\gamma)` points spanning the
separated (:math:`\\lambda=\\gamma=4`) and integrated
(:math:`\\lambda=4, \\gamma=0.5`) regimes.  Seeds are fixed, so the tests
are deterministic; the bands are a few pooled standard errors wide plus a
KS-style cap on the empirical-CDF distance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.compression_metric import alpha_of
from repro.core.batch_kernel import BatchKernel, DEFAULT_WINDOW, RNG_CHUNK
from repro.core.separation_chain import SeparationChain
from repro.experiments.parallel import CellTask, execute_cells
from repro.obs.convergence import STOP_CONVERGED, StopCondition
from repro.system.initializers import random_blob_system
from repro.system.observables import (
    edge_count_scratch,
    heterogeneous_edge_count_scratch,
    largest_cluster_fraction,
)
from repro.util.serialization import configuration_to_json

N = 48
SEED_BASE = 7100

#: Steps of the exactness runs: past three proposal-stream refills.
LONG_STEPS = 30_000
assert LONG_STEPS > 3 * RNG_CHUNK


def _make_system():
    # One fixed initial configuration shared by every ensemble member so
    # the comparison isolates the kernels' dynamics.
    return random_blob_system(N, seed=2018)


def _observe(system):
    return (
        float(system.perimeter()),
        float(system.hetero_total),
        float(alpha_of(system)),
        float(largest_cluster_fraction(system)),
    )


OBS_NAMES = ("perimeter", "het_edges", "alpha", "largest_cluster_fraction")


def _ensemble_dict(lam, gamma, seeds, steps, swaps=True):
    rows = []
    for seed in seeds:
        system = _make_system()
        chain = SeparationChain(
            system, lam=lam, gamma=gamma, seed=seed, swaps=swaps, backend="dict"
        )
        chain.run(steps)
        rows.append(_observe(system))
    return np.asarray(rows)


def _ensemble_batch(lam, gamma, seeds, steps, swaps=True):
    system = _make_system()
    kernel = BatchKernel(
        system, lam, gamma, replicas=len(seeds), seed=list(seeds), swaps=swaps
    )
    kernel.run(steps)
    return np.asarray(
        [_observe(kernel.export_system(r)) for r in range(len(seeds))]
    )


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic (no SciPy dependency)."""
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _state(kernel):
    """Everything a trajectory determines: counters and arenas."""
    return (
        kernel.iters.tolist(),
        kernel.edge.tolist(),
        kernel.het.tolist(),
        kernel.acc_moves.tolist(),
        kernel.acc_swaps.tolist(),
        [
            list(kernel.export_system(r).colors.items())
            for r in range(kernel.R)
        ],
    )


class TestExactness:
    """Bit-level properties of the speculative-window implementation."""

    def test_window_one_matches_default_window(self):
        """The speculative window is a pure optimization.

        ``window=1`` evaluates a single proposal per vectorized pass —
        the sequential reference — so identical seeds must give identical
        trajectories whatever the window cap, across several stream
        refills, at high (γ=1) and low (γ=4) acceptance, with and
        without swaps.
        """
        seeds = list(range(SEED_BASE, SEED_BASE + 4))
        for gamma in (1.0, 4.0):
            for swaps in (True, False):
                states = []
                for window in (1, 8, DEFAULT_WINDOW):
                    kernel = BatchKernel(
                        _make_system(), 4.0, gamma, replicas=4, seed=seeds,
                        swaps=swaps, window=window,
                    )
                    kernel.run(LONG_STEPS)
                    states.append(_state(kernel))
                label = f"gamma={gamma} swaps={swaps}"
                assert states[1] == states[0], f"window 8 differs ({label})"
                assert states[2] == states[0], (
                    f"window {DEFAULT_WINDOW} differs ({label})"
                )

    @pytest.mark.parametrize("chunk", [750, 333])
    @pytest.mark.parametrize("gamma", [1.0, 4.0])
    def test_chunking_invariance(self, gamma, chunk):
        """``run(30000)`` equals consecutive ``run(chunk)`` calls.

        750 splits the run into 40 equal calls; 333 leaves a short
        final call, and its boundaries fall mid-round far more often.
        """
        seeds = list(range(SEED_BASE, SEED_BASE + 4))
        whole = BatchKernel(_make_system(), 4.0, gamma, replicas=4, seed=seeds)
        whole.run(LONG_STEPS)
        chunked = BatchKernel(
            _make_system(), 4.0, gamma, replicas=4, seed=seeds
        )
        for start in range(0, LONG_STEPS, chunk):
            chunked.run(min(chunk, LONG_STEPS - start))
        assert _state(chunked) == _state(whole)

    def test_adaptive_stop_is_fixed_run_prefix(self):
        """An adaptively stopped group equals a fixed ``run(X)``.

        The group's worker chunks the kernel at verdict boundaries and
        stops every replica at one iteration ``X``; chunking does not
        change trajectories, so the arenas and counters it returns are
        exactly those of one uninterrupted ``run(X)`` on the same seeds.
        """
        system = _make_system()
        system_json = configuration_to_json(system, sort_nodes=False)
        seeds = list(range(SEED_BASE, SEED_BASE + 4))
        tasks = [
            CellTask(
                lam=4.0, gamma=1.0, replica=r, seed=seed, steps=200_000,
                system_json=system_json, kernel="batch",
            )
            for r, seed in enumerate(seeds)
        ]
        stop = StopCondition(
            ess_target=5.0, geweke_max=50.0, min_iterations=2 * RNG_CHUNK
        )
        results = execute_cells(tasks, backend="serial", adaptive=stop)
        stopped_at = {result.iterations for result in results}
        assert len(stopped_at) == 1
        (x,) = stopped_at
        assert all(r.stop_reason == STOP_CONVERGED for r in results)
        assert 2 * RNG_CHUNK <= x < 200_000
        fixed = BatchKernel(_make_system(), 4.0, 1.0, replicas=4, seed=seeds)
        fixed.run(x)
        for r, result in enumerate(results):
            assert result.accepted_moves == int(fixed.acc_moves[r])
            assert result.accepted_swaps == int(fixed.acc_swaps[r])
            assert list(result.system.colors.items()) == list(
                fixed.export_system(r).colors.items()
            )
            assert result.system.edge_total == int(fixed.edge[r])
            assert result.system.hetero_total == int(fixed.het[r])

    def test_grouping_invariance(self):
        """R-replica kernel == R single-replica kernels (same seed list)."""
        seeds = list(range(SEED_BASE, SEED_BASE + 6))
        steps = 2 * RNG_CHUNK + 3000  # past the second stream refill
        grouped = BatchKernel(_make_system(), 4.0, 2.0, replicas=6, seed=seeds)
        grouped.run(steps)
        for r, seed in enumerate(seeds):
            solo = BatchKernel(_make_system(), 4.0, 2.0, replicas=1, seed=[seed])
            solo.run(steps)
            assert int(solo.edge[0]) == int(grouped.edge[r])
            assert int(solo.het[0]) == int(grouped.het[r])
            assert sorted(solo.positions(0)) == sorted(grouped.positions(r))

    @pytest.mark.parametrize("swaps", [True, False])
    def test_incremental_counters_match_scratch(self, swaps):
        seeds = list(range(SEED_BASE, SEED_BASE + 4))
        kernel = BatchKernel(
            _make_system(), 4.0, 4.0, replicas=4, seed=seeds, swaps=swaps
        )
        kernel.run(5000)
        for r in range(4):
            system = kernel.export_system(r)
            assert int(kernel.edge[r]) == edge_count_scratch(system)
            assert int(kernel.het[r]) == heterogeneous_edge_count_scratch(system)
            assert int(kernel.perimeters()[r]) == system.perimeter()
            assert system.is_connected()
            assert not system.has_holes()


@pytest.mark.parametrize(
    "lam,gamma,regime",
    [
        (4.0, 4.0, "separated"),
        (4.0, 0.5, "integrated"),
    ],
)
class TestMomentMatching:
    """Ensemble moments of batch vs. dict kernels at matched parameters.

    Both ensembles start from the same configuration and run the same
    number of steps, so any systematic discrepancy in the dynamics would
    shift the ensemble means apart.  The band is
    ``3 * pooled standard error + epsilon`` — wide enough to be stable
    under the fixed seeds, tight enough to catch a broken acceptance
    ratio (which moves means by many standard deviations).
    """

    REPLICAS = 16
    STEPS = 15_000
    _cache: dict = {}

    def _ensembles(self, lam, gamma):
        key = (lam, gamma)
        if key not in self._cache:
            seeds_b = [SEED_BASE + 10 * i for i in range(self.REPLICAS)]
            seeds_d = [SEED_BASE + 10 * i + 5 for i in range(self.REPLICAS)]
            batch = _ensemble_batch(lam, gamma, seeds_b, self.STEPS)
            ref = _ensemble_dict(lam, gamma, seeds_d, self.STEPS)
            self._cache[key] = (batch, ref)
        return self._cache[key]

    def test_means_within_tolerance(self, lam, gamma, regime):
        batch, ref = self._ensembles(lam, gamma)
        for j, name in enumerate(OBS_NAMES):
            mb, md = batch[:, j].mean(), ref[:, j].mean()
            se = math.sqrt(
                batch[:, j].var(ddof=1) / batch.shape[0]
                + ref[:, j].var(ddof=1) / ref.shape[0]
            )
            eps = 0.05 * max(abs(md), 1.0)
            assert abs(mb - md) <= 3.0 * se + eps, (
                f"{regime} {name}: batch mean {mb:.3f} vs dict mean {md:.3f} "
                f"(band {3.0 * se + eps:.3f})"
            )

    def test_ks_distance_within_tolerance(self, lam, gamma, regime):
        batch, ref = self._ensembles(lam, gamma)
        n1 = batch.shape[0]
        n2 = ref.shape[0]
        # KS critical value at alpha=0.001 for a smoke-level gate.
        crit = 1.95 * math.sqrt((n1 + n2) / (n1 * n2))
        for j, name in enumerate(OBS_NAMES):
            d = _ks_distance(batch[:, j], ref[:, j])
            assert d <= crit, (
                f"{regime} {name}: KS distance {d:.3f} exceeds {crit:.3f}"
            )

    def test_regime_signature(self, lam, gamma, regime):
        """Sanity check that the two parameter points really span regimes."""
        batch, _ = self._ensembles(lam, gamma)
        lcf = batch[:, 3].mean()
        if regime == "separated":
            assert lcf > 0.35
        else:
            assert lcf < 0.35
