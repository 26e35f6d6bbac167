"""Markov chain :math:`\\mathcal{M}` for separation and integration.

This is Algorithm 1 of the paper.  Each step:

1. choose a particle :math:`P` uniformly at random (color :math:`c_i`,
   location :math:`\\ell`);
2. choose a neighboring location :math:`\\ell'` and :math:`q \\in (0,1)`
   uniformly at random;
3. if :math:`\\ell'` is unoccupied, move :math:`P` there provided
   (i) :math:`P` does not have five neighbors, (ii) Property 4 or 5 holds,
   and (iii) :math:`q < \\lambda^{e'-e} \\gamma^{e_i'-e_i}`;
4. if :math:`\\ell'` holds a particle :math:`Q` of another color, swap the
   two provided :math:`q < \\gamma^{\\Delta a}` where :math:`\\Delta a` is
   the change in homogeneous-edge count.

All quantities are strictly local (the eight nodes surrounding the edge
:math:`(\\ell, \\ell')`), which is what allows the chain to be realized by
the fully distributed algorithm in :mod:`repro.distributed`.

Performance notes: the step loop avoids attribute lookups and function
calls by caching the color map, precomputing the edge-ring offsets per
direction, table-driving the Property 4/5 check over the 256 ring
occupancy bitmasks, and table-driving the bias powers
:math:`\\lambda^{\\Delta e} \\gamma^{\\Delta e_i}`.

Two interchangeable kernels execute the batched ``run()`` loop (the
``backend`` constructor knob selects one; see ``docs/performance.md``):

* ``"dict"`` — the historical hash-map kernel: the configuration lives
  in ``ParticleSystem.colors`` and every step hashes ~9 coordinate
  tuples against it;
* ``"grid"`` — a flat-arena kernel: the configuration is embedded in a
  padded bounded list indexed by ``node_id = (y - oy) * W + (x - ox)``
  (``0`` = empty, ``c + 1`` = color ``c``), ring neighborhoods become
  precomputed *integer deltas*, and the hot loop does pure integer
  indexing — no tuple construction, no hashing.  The arena regrows
  (amortized, margin doubling) when the blob nears its border, and the
  canonical ``ParticleSystem.colors`` dict is lazily re-synced — with
  the exact insertion order the dict kernel would have produced — at
  every run boundary.

Both kernels consume the *same* ``random.Random`` stream in the same
order, so trajectories are bit-identical for the same seed (regression
tested in ``tests/test_core_grid_kernel.py``).  ``"auto"`` (the
default) picks the grid kernel for runs long enough to amortize the
arena build/sync and falls back to the dict kernel otherwise.
"""

from __future__ import annotations

import math
import random as _random
import time
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Instrumentation, JsonLogger, MetricsRegistry, TraceRecorder

from repro.core.moves import (
    DST_RING_INDICES,
    SRC_RING_INDICES,
    move_allowed,
)
from repro.lattice.triangular import NEIGHBOR_OFFSETS, Node, direction_between
from repro.system.configuration import ParticleSystem
from repro.util.rng import RngLike, make_rng, uniform_chunk

# ----------------------------------------------------------------------
# Precomputed tables
# ----------------------------------------------------------------------


def _build_ring_offsets() -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """For each move direction d, offsets of the 8 edge-ring nodes.

    Offsets are relative to the source node; the ring index convention is
    that of :func:`repro.lattice.triangular.edge_ring` (positions 0 and 4
    are the common neighbors).
    """
    tables = []
    for d in range(6):
        vdx, vdy = NEIGHBOR_OFFSETS[d]
        ring = []
        # Position 0: common neighbor on the counterclockwise side.
        ring.append(NEIGHBOR_OFFSETS[(d + 1) % 6])
        # Positions 1-3: exclusive neighbors of the destination.
        for step in (1, 0, 5):
            dx, dy = NEIGHBOR_OFFSETS[(d + step) % 6]
            ring.append((vdx + dx, vdy + dy))
        # Position 4: common neighbor on the clockwise side.
        ring.append(NEIGHBOR_OFFSETS[(d + 5) % 6])
        # Positions 5-7: exclusive neighbors of the source.
        for step in (4, 3, 2):
            ring.append(NEIGHBOR_OFFSETS[(d + step) % 6])
        tables.append(tuple(ring))
    return tuple(tables)


RING_OFFSETS = _build_ring_offsets()

#: MOVE_OK[mask] — whether Property 4 or 5 holds for the ring occupancy
#: bitmask (bit i set iff ring position i occupied).
MOVE_OK: Tuple[bool, ...] = tuple(
    move_allowed([bool(mask & (1 << i)) for i in range(8)])
    for mask in range(256)
)

_SRC_MASK = sum(1 << i for i in SRC_RING_INDICES)
_DST_MASK = sum(1 << i for i in DST_RING_INDICES)

#: Number of occupied source-side / destination-side neighbors per mask.
E_SRC: Tuple[int, ...] = tuple(bin(mask & _SRC_MASK).count("1") for mask in range(256))
E_DST: Tuple[int, ...] = tuple(bin(mask & _DST_MASK).count("1") for mask in range(256))

#: Sentinel marking a ring mask whose move proposal is always rejected
#: (source has five neighbors, or Properties 4/5 fail).
_MOVE_REJECT = 99

#: Collapsed move table for the grid kernel: ``Δe = e' - e`` per ring
#: mask, or ``_MOVE_REJECT`` when the move is disallowed.  Folds the
#: three dict-kernel lookups (``E_SRC``/``MOVE_OK``/``E_DST``) and two
#: branches into one lookup and one compare in the hot loop.
MOVE_DELTA: Tuple[int, ...] = tuple(
    (E_DST[mask] - E_SRC[mask])
    if (E_SRC[mask] != 5 and MOVE_OK[mask])
    else _MOVE_REJECT
    for mask in range(256)
)


#: Uniform draws per refill of the batched run() fast path.
_RNG_CHUNK = 4096

#: Scalar kernel backends (shared ``random.Random`` regime; the grid and
#: dict kernels produce bit-identical trajectories for a given seed).
KERNEL_BACKENDS = ("auto", "grid", "dict")

#: All backends understood by :class:`SeparationChain`: the scalar
#: kernels plus the replica-batched NumPy kernel.  ``"batch"`` is a
#: distinct RNG regime (per-replica PCG64 streams; see
#: :mod:`repro.core.batch_kernel`), so it is deliberately *not* part of
#: :data:`KERNEL_BACKENDS` — code that relies on bit-identical
#: trajectories across backends iterates the scalar tuple only.
CHAIN_BACKENDS = KERNEL_BACKENDS + ("batch",)

#: Initial empty margin (cells) around the bounding box of the
#: configuration when the flat arena is (re)built.  Must be >= 3 so
#: that every particle starts outside the 2-cell danger band.
_GRID_MARGIN = 8

#: Under ``backend="auto"``, runs shorter than this take the dict
#: kernel: the O(n + arena) grid build/sync would not amortize.
_GRID_MIN_STEPS = 256


def _clamped_power(base: float, exponent: int) -> float:
    """``base ** exponent`` with overflow clamped to ``math.inf``.

    ``float.__pow__`` raises ``OverflowError`` for results above the
    float range (e.g. ``1e40 ** 10`` while building the swap table for
    the large-γ limit of Theorem 14) but silently underflows to ``0.0``
    below it; clamping the overflow side to ``inf`` makes both
    directions total, so extreme-but-valid biases construct fine.
    """
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


@lru_cache(maxsize=None)
def _power_table(base: float, max_abs_exponent: int) -> Tuple[float, ...]:
    """``table[k + max_abs_exponent] == base ** k`` for |k| <= max.

    Entries overflowing the float range clamp to ``math.inf`` (and
    underflow naturally to ``0.0``) instead of raising at construction.

    Memoized on ``(base, max_abs_exponent)``: sweeps construct
    thousands of chains over a handful of distinct biases, and
    rebuilding identical tables per chain was pure waste.  The cache
    needs no invalidation — tables are immutable tuples, and a given
    key always maps to the same values.  Entries are tiny (11 or 21
    floats), so the cache is unbounded.
    """
    return tuple(
        _clamped_power(base, k)
        for k in range(-max_abs_exponent, max_abs_exponent + 1)
    )


def bias_ratio(lam: float, gamma: float, delta_e: int, delta_ei: int) -> float:
    """:math:`\\lambda^{\\Delta e} \\gamma^{\\Delta e_i}`, overflow-safe.

    Resolves the indeterminate ``inf * 0`` corner (one bias extremely
    large, the other extremely small) in log space, which is where the
    product is well defined.
    """
    ratio = _clamped_power(lam, delta_e) * _clamped_power(gamma, delta_ei)
    if ratio != ratio:  # nan from inf * 0: resolve via logarithms
        log_ratio = delta_e * math.log(lam) + delta_ei * math.log(gamma)
        if log_ratio > 0.0:
            return math.inf
        return math.exp(log_ratio)
    return ratio


class SeparationChain:
    """Sampler for the separation/integration chain :math:`\\mathcal{M}`.

    Parameters
    ----------
    system:
        The particle system to evolve (mutated in place).
    lam:
        Neighbor bias :math:`\\lambda`; values above 1 favor compression.
    gamma:
        Homogeneity bias :math:`\\gamma`; values above 1 favor same-color
        neighbors.  ``gamma=1`` recovers the color-blind compression chain
        of [CannonDRR16].
    swaps:
        Whether neighboring particles of different colors may exchange
        positions (Section 2.3).  Swaps accelerate convergence but do not
        affect the stationary distribution; the ablation benchmark
        quantifies this.
    seed:
        Integer seed or ``random.Random`` for reproducibility.
    backend:
        Step-kernel selection: ``"grid"`` forces the flat-arena integer
        kernel, ``"dict"`` forces the historical hash-map kernel, and
        ``"auto"`` (default) uses the grid kernel for batched runs long
        enough to amortize the arena build/sync.  Both kernels consume
        the RNG stream identically, so the choice never changes a
        trajectory — only its speed.  The grid kernel engages on the
        batched ``run()`` path only; ``step()`` and subclassed-RNG
        chains always use the reference dict path.

    Attributes
    ----------
    iterations:
        Total steps taken.
    accepted_moves, accepted_swaps:
        Counts of accepted location moves / color swaps.
    """

    def __init__(
        self,
        system: ParticleSystem,
        lam: float,
        gamma: float,
        swaps: bool = True,
        seed: RngLike = None,
        backend: str = "auto",
    ):
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        if backend not in CHAIN_BACKENDS:
            raise ValueError(
                f"unknown kernel backend {backend!r}; "
                f"expected one of {CHAIN_BACKENDS}"
            )
        self.system = system
        self.lam = float(lam)
        self.gamma = float(gamma)
        self.swaps = bool(swaps)
        self.rng = make_rng(seed)
        self.iterations = 0
        self.accepted_moves = 0
        self.accepted_swaps = 0
        self._positions: List[Node] = list(system.colors)
        self._lam_pow = _power_table(self.lam, 5)
        self._gam_pow = _power_table(self.gamma, 5)
        self._gam_pow_swap = _power_table(self.gamma, 10)
        self._log_lam = math.log(self.lam)
        self._log_gam = math.log(self.gamma)
        # Leftover uniforms from a chunked run(); consumed before any new
        # draw so that interleaving run() and step() stays on one stream.
        self._buffer: List[float] = []
        self._buffer_pos = 0
        # Chunked drawing is only safe when the chain owns a plain
        # random.Random.  Subclasses (e.g. the replay stream used by the
        # coupling diagnostics) rely on draw-by-draw consumption, so they
        # take the reference single-step path.
        self._batch_rng = type(self.rng) is _random.Random
        # Flat-grid kernel state (built lazily on first grid run; see
        # _grid_build).  The arena embeds the configuration in a padded
        # bounded list (0 = empty, c + 1 = color c); _grid_valid tracks
        # whether it still mirrors system.colors.
        self.backend = backend
        self._grid_enabled = backend not in ("dict", "batch") and self._batch_rng
        self._grid_force = backend == "grid"
        # Replica-batched NumPy kernel (backend="batch"): a persistent
        # single-replica BatchKernel owns the hot-loop state; the dict is
        # re-synced after every run().  Distinct RNG regime — see
        # repro.core.batch_kernel.  Built lazily on first batch run.
        self._batch_kernel = None
        self._batch_valid = False
        self._grid_margin = _GRID_MARGIN
        self._grid_valid = False
        self._grid_regrows = 0
        self._arena: List[int] = []
        self._gdanger = bytearray()
        self._gpos: List[int] = []
        self._gW = 0
        self._gH = 0
        self._gox = 0
        self._goy = 0
        self._gmove: Tuple[int, ...] = ()
        self._gring: Tuple[Tuple[int, ...], ...] = ()
        self._gring_swap: Tuple[Tuple[int, ...], ...] = ()
        self._gswap_contrib: List[List[List[int]]] = []
        self._grid_rank: List[int] = []
        self._grid_last: List[int] = []
        # Observability hooks (see instrument()).  Disabled by default;
        # run() pays exactly one boolean check when uninstrumented, and
        # the hooks never touch the RNG stream, so instrumented and
        # uninstrumented trajectories are bit-identical (asserted by the
        # regression test in tests/test_obs.py).
        self._obs_metrics: Optional["MetricsRegistry"] = None
        self._obs_trace: Optional["TraceRecorder"] = None
        self._obs_logger: Optional["JsonLogger"] = None
        self._obs_diag = None
        self._obs_active = False
        # Mid-run durability hook (see set_state_hook): called at
        # segment boundaries once at least _state_every iterations have
        # passed since the last emission.  Never touches the RNG
        # stream; the only side effect inside the chain is an early
        # dict write-back at emission points (order-identical between
        # runs sharing the same cadence).
        self._state_hook = None
        self._state_every = 0
        self._state_last = 0

    # ------------------------------------------------------------------

    def _uniform(self) -> float:
        """Next uniform draw, honoring any chunk left over from run().

        The batched fast path may have drawn ahead of what it consumed;
        serving those leftovers first keeps a mixed run()/step() usage on
        the exact stream a pure step() loop would have seen.
        """
        pos = self._buffer_pos
        if pos < len(self._buffer):
            self._buffer_pos = pos + 1
            return self._buffer[pos]
        return self.rng.random()

    def step(self) -> bool:
        """Execute one iteration of Algorithm 1.

        Returns whether the configuration changed.  This is the
        reference single-step path; :meth:`run` batches the same logic
        (and the test suite asserts both produce identical trajectories
        for the same seed).
        """
        system = self.system
        colors = system.colors
        positions = self._positions
        random = self._uniform
        self.iterations += 1
        # step() mutates the canonical dict directly, so any flat arena
        # built by a previous grid run — or a live batch kernel — no
        # longer mirrors it.
        self._grid_valid = False
        self._batch_valid = False

        idx = int(random() * len(positions))
        src = positions[idx]
        ci = colors[src]
        d = int(random() * 6)
        dx, dy = NEIGHBOR_OFFSETS[d]
        x, y = src
        dst = (x + dx, y + dy)
        dst_color = colors.get(dst)
        if dst_color is not None and (not self.swaps or dst_color == ci):
            return False  # occupied target and no swap possible: no-op

        ring_offsets = RING_OFFSETS[d]
        ring_colors = []
        mask = 0
        bit = 1
        for rdx, rdy in ring_offsets:
            c = colors.get((x + rdx, y + rdy))
            ring_colors.append(c)
            if c is not None:
                mask |= bit
            bit <<= 1

        if dst_color is None:
            # --- Expansion move (Algorithm 1, lines 3-8) ---
            e_src = E_SRC[mask]
            if e_src == 5:
                return False
            if not MOVE_OK[mask]:
                return False
            e_dst = E_DST[mask]
            ei_src = 0
            for i in SRC_RING_INDICES:
                if ring_colors[i] == ci:
                    ei_src += 1
            ei_dst = 0
            for i in DST_RING_INDICES:
                if ring_colors[i] == ci:
                    ei_dst += 1
            ratio = (
                self._lam_pow[e_dst - e_src + 5]
                * self._gam_pow[ei_dst - ei_src + 5]
            )
            if ratio != ratio:  # inf * 0 under extreme biases
                log_ratio = (
                    (e_dst - e_src) * self._log_lam
                    + (ei_dst - ei_src) * self._log_gam
                )
                ratio = math.inf if log_ratio > 0.0 else math.exp(log_ratio)
            if ratio < 1.0 and random() >= ratio:
                return False
            # Accept: move the particle and update counters locally.
            del colors[src]
            colors[dst] = ci
            positions[idx] = dst
            system.edge_total += e_dst - e_src
            system.hetero_total += (e_dst - ei_dst) - (e_src - ei_src)
            self.accepted_moves += 1
            return True

        # --- Swap move (Algorithm 1, lines 9-10) ---
        cj = dst_color
        expo = 0
        for i in DST_RING_INDICES:
            c = ring_colors[i]
            if c == ci:
                expo += 1  # |N_i(l') \ {P}|
            elif c == cj:
                expo -= 1  # |N_j(l')|
        for i in SRC_RING_INDICES:
            c = ring_colors[i]
            if c == ci:
                expo -= 1  # |N_i(l)|
            elif c == cj:
                expo += 1  # |N_j(l) \ {Q}|
        ratio = self._gam_pow_swap[expo + 10]
        if ratio < 1.0 and random() >= ratio:
            return False
        colors[src] = cj
        colors[dst] = ci
        system.hetero_total -= expo
        self.accepted_swaps += 1
        return True

    def instrument(
        self,
        obs: Optional["Instrumentation"] = None,
        *,
        metrics: Optional["MetricsRegistry"] = None,
        trace: Optional["TraceRecorder"] = None,
        logger: Optional["JsonLogger"] = None,
        diagnostics=None,
    ) -> "SeparationChain":
        """Attach observability hooks; returns ``self`` for chaining.

        Accepts either an :class:`repro.obs.Instrumentation` bundle or
        the individual instruments.  Hooks fire once per :meth:`run`
        call (never per step), record wall-time, throughput, and
        counter deltas, and do not consume randomness — trajectories
        stay bit-identical to uninstrumented runs.  Passing nothing
        detaches all hooks.

        ``diagnostics`` attaches a streaming convergence monitor (see
        :class:`repro.obs.convergence.ChainDiagnostics`): :meth:`run`
        then samples the chain's incremental observables every
        ``diagnostics.config.stride`` iterations.  Sampling segments
        the run at stride boundaries with a refill horizon that
        reproduces the unsegmented draw-ahead exactly (scalar kernels)
        or hooks the batch kernel's round loop (batch backend) — in
        both cases trajectories *and the final RNG state* stay
        bit-identical (regression tested).  A diagnostics object whose
        sinks are unset inherits the chain's metrics/logger/trace.
        """
        if obs is not None:
            metrics = metrics or obs.metrics
            trace = trace or obs.trace
            logger = logger or obs.logger
        self._obs_metrics = metrics
        self._obs_trace = trace
        self._obs_logger = logger
        if diagnostics is not None:
            if diagnostics.metrics is None:
                diagnostics.metrics = metrics
            if diagnostics.logger is None:
                diagnostics.logger = logger
            if diagnostics.trace is None:
                diagnostics.trace = trace
        self._obs_diag = diagnostics
        if self._batch_kernel is not None:
            self._batch_kernel.observer = diagnostics
        self._obs_active = (
            metrics is not None
            or trace is not None
            or logger is not None
            or diagnostics is not None
        )
        return self

    def run(self, steps: int) -> "SeparationChain":
        """Execute ``steps`` iterations; returns ``self`` for chaining.

        When the chain owns a plain ``random.Random`` this uses a batched
        fast path: the step logic is inlined (no per-step method call or
        attribute traffic) and the particle-index/direction/q uniforms
        are drawn in chunks via :func:`repro.util.rng.uniform_chunk`
        instead of three ``random()`` calls per step.  Consumption order
        is strictly sequential and unused draws are carried over in a
        buffer, so the trajectory is identical to calling :meth:`step`
        ``steps`` times with the same seed — including across mixed
        ``run()``/``step()`` call sequences.

        With :meth:`instrument` attached, the run is additionally timed
        and reported (metrics counters/gauges/histogram, one trace span,
        one debug log event) — all outside the step loop, so the fast
        path and the RNG stream are untouched.
        """
        if not self._obs_active:
            self._run_steps(steps)
            if self._state_hook is not None:
                self._maybe_state_hook()
            return self
        trace = self._obs_trace
        trace_start = trace.now() if trace is not None else 0.0
        moves_before = self.accepted_moves
        swaps_before = self.accepted_swaps
        wall_start = time.perf_counter()
        if self._obs_diag is not None:
            self._run_diagnosed(steps)
        else:
            self._run_steps(steps)
        elapsed = time.perf_counter() - wall_start
        self._record_run(steps, elapsed, moves_before, swaps_before, trace_start)
        if self._state_hook is not None:
            self._maybe_state_hook()
        return self

    def _record_run(
        self,
        steps: int,
        elapsed: float,
        moves_before: int,
        swaps_before: int,
        trace_start: float,
    ) -> None:
        """Publish one run()'s worth of observability data (cold path)."""
        delta_moves = self.accepted_moves - moves_before
        delta_swaps = self.accepted_swaps - swaps_before
        metrics = self._obs_metrics
        if metrics is not None:
            metrics.counter("chain.steps").inc(steps)
            metrics.counter("chain.moves_accepted").inc(delta_moves)
            metrics.counter("chain.swaps_accepted").inc(delta_swaps)
            metrics.histogram("chain.run_seconds").observe(elapsed)
            if elapsed > 0.0:
                metrics.gauge("chain.steps_per_sec").set(steps / elapsed)
            metrics.gauge("chain.perimeter").set(self.system.perimeter())
            metrics.gauge("chain.hetero_edges").set(self.system.hetero_total)
            metrics.gauge("chain.edge_total").set(self.system.edge_total)
            if self.iterations:
                metrics.gauge("chain.acceptance_rate").set(
                    (self.accepted_moves + self.accepted_swaps) / self.iterations
                )
        trace = self._obs_trace
        if trace is not None:
            trace.complete(
                "chain.run",
                trace_start,
                steps=steps,
                accepted_moves=delta_moves,
                accepted_swaps=delta_swaps,
            )
        logger = self._obs_logger
        if logger is not None:
            logger.debug(
                "chain.run",
                steps=steps,
                seconds=elapsed,
                accepted_moves=delta_moves,
                accepted_swaps=delta_swaps,
                iterations=self.iterations,
            )

    def _run_steps(self, steps: int) -> "SeparationChain":
        """The uninstrumented run loop (reference + batched fast paths).

        Dispatches between the flat-grid kernel and the dict kernel
        according to the ``backend`` knob; both consume the RNG stream
        identically, so the dispatch never affects the trajectory.
        """
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        if self.backend == "batch":
            return self._run_steps_batch(steps)
        if not self._batch_rng:
            step = self.step
            for _ in range(steps):
                step()
            return self
        if steps == 0:
            return self
        if self._state_hook is not None and self._state_every > 0:
            return self._run_steps_hooked(steps)
        if self._grid_enabled and (
            self._grid_force or steps >= _GRID_MIN_STEPS
        ):
            return self._run_steps_grid(steps)
        return self._run_steps_dict(steps)

    def _run_steps_hooked(self, steps: int) -> "SeparationChain":
        """Run ``steps`` iterations, firing the state hook on cadence.

        A monolithic ``run()`` would only reach the hook at its outer
        boundary — useless for a million-step cell that needs mid-run
        durability (and blind to drain requests).  This segments the
        run at ``_state_every`` boundaries with the same discipline as
        :meth:`_run_diagnosed`: the kernel choice is made once from the
        total step count, each segment passes the outer remaining count
        as its refill ``horizon``, and the grid kernel's dict
        write-back happens at emission points with absolute last-move
        indices — so the trajectory, the RNG stream, and the final
        dict insertion order are all bit-identical to an unsegmented
        call.
        """
        use_grid = self._grid_enabled and (
            self._grid_force or steps >= _GRID_MIN_STEPS
        )
        remaining = steps
        while remaining > 0:
            due = self._state_every - (self.iterations - self._state_last)
            seg = min(remaining, max(due, 1))
            if use_grid:
                self._run_steps_grid(
                    seg,
                    horizon=remaining,
                    sync=seg == remaining,
                    sync_base=steps - remaining,
                )
            else:
                self._run_steps_dict(seg, horizon=remaining)
            remaining -= seg
            if remaining > 0:
                self._maybe_state_hook()
        return self

    def _run_diagnosed(self, steps: int) -> "SeparationChain":
        """Run ``steps`` iterations with convergence sampling attached.

        Segments the run at the diagnostics stride so samples land on
        exact iteration boundaries, while keeping the trajectory — and
        the final RNG state — bit-identical to an unsegmented run:

        * The kernel choice (grid vs dict) is made **once** from the
          total step count, because per-segment dispatch would hand
          short tail segments to the dict kernel and change the final
          colors-dict insertion order.
        * Each segment passes the outer remaining step count as its
          refill ``horizon``, so the draw-ahead buffer evolves exactly
          as in one big call (the refill trigger depends only on
          buffer state, which then matches step for step).
        * The batch backend is not segmented at all: it relies on
          the kernel's round-level observer hook instead, so its
          samples land on round (not stride) boundaries.
        """
        diag = self._obs_diag
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        if self.backend == "batch":
            return self._run_steps_batch(steps)
        if not self._batch_rng:
            step = self.step
            done = 0
            while done < steps:
                seg = min(steps - done, diag.steps_until_tick(self.iterations))
                for _ in range(seg):
                    step()
                done += seg
                diag.observe_chain(self)
            return self
        use_grid = self._grid_enabled and (
            self._grid_force or steps >= _GRID_MIN_STEPS
        )
        remaining = steps
        while remaining > 0:
            seg = min(remaining, diag.steps_until_tick(self.iterations))
            if use_grid:
                # Deferred sync: only the final segment pays the dict
                # write-back; `sync_base` keeps last-move indices on
                # the whole-run step axis (see _run_steps_grid).
                self._run_steps_grid(
                    seg,
                    horizon=remaining,
                    sync=seg == remaining,
                    sync_base=steps - remaining,
                )
            else:
                self._run_steps_dict(seg, horizon=remaining)
            remaining -= seg
            diag.observe_chain(self)
            if self._state_hook is not None:
                self._maybe_state_hook()
        return self

    def run_until(self, max_steps: int, stop) -> str:
        """Run until ``stop`` is satisfied or ``max_steps`` exhaust.

        ``stop`` is a :class:`repro.obs.convergence.StopCondition`;
        attached convergence diagnostics (``instrument(diagnostics=…)``)
        supply the verdicts it evaluates.  Returns the stop reason:
        ``"converged"`` when the diagnostics reached the target,
        ``"max_iterations"`` when the condition's hard cap fired first,
        or ``"budget"`` when ``max_steps`` ran out.

        The scalar kernels keep the exact segmentation discipline of
        :meth:`_run_diagnosed` — kernel choice made once, refill
        ``horizon`` equal to the outer remaining count, dict write-back
        deferred between stop checks — so an adaptive trajectory is a
        bit-exact *prefix* of the fixed-budget trajectory on the same
        RNG stream.  Stop conditions are evaluated on the diagnostics'
        verdict cadence (``config.verdict_every`` samples), never more
        often, because a full verdict walks every estimator.

        The batch backend is chunked at verdict-cadence boundaries
        instead.  Chunking never changes a batch trajectory (each
        replica's proposal stream is a pure function of its seed), so
        batch adaptive runs are bit-exact prefixes too.
        """
        from repro.obs.convergence import STOP_BUDGET, STOP_MAX_ITERATIONS

        diag = self._obs_diag
        if diag is None:
            raise RuntimeError(
                "run_until requires convergence diagnostics; attach one "
                "via instrument(diagnostics=...)"
            )
        if max_steps < 0:
            raise ValueError(
                f"max_steps must be non-negative, got {max_steps}"
            )
        # ``min_iterations``/``max_iterations`` count absolute chain
        # iterations (a resumed chain keeps its count), so translate the
        # hard cap into this call's frame before segmenting.
        budget_end = self.iterations + max_steps
        cap_end = budget_end
        if stop.max_iterations and stop.max_iterations < budget_end:
            cap_end = max(self.iterations, stop.max_iterations)
        cap = cap_end - self.iterations
        capped_reason = (
            STOP_MAX_ITERATIONS if cap_end < budget_end else STOP_BUDGET
        )
        verdict_every = diag.config.verdict_every

        if self.backend == "batch":
            check_every = diag.config.stride * verdict_every
            remaining = cap
            while remaining > 0:
                seg = min(remaining, check_every)
                self.run(seg)  # round-level observer samples inside
                remaining -= seg
                if remaining and self.iterations < stop.min_iterations:
                    continue
                reason = stop.satisfied(diag.summary(), self.iterations)
                if reason is not None:
                    return reason
            return capped_reason

        if not self._batch_rng:
            remaining = cap
            step = self.step
            while remaining > 0:
                seg = min(
                    remaining, diag.steps_until_tick(self.iterations)
                )
                for _ in range(seg):
                    step()
                remaining -= seg
                diag.observe_chain(self)
                if self._stop_check_due(diag, verdict_every, remaining):
                    reason = stop.satisfied(diag.summary(), self.iterations)
                    if reason is not None:
                        return reason
                if self._state_hook is not None:
                    self._maybe_state_hook()
            return capped_reason

        use_grid = self._grid_enabled and (
            self._grid_force or cap >= _GRID_MIN_STEPS
        )
        remaining = cap
        since_sync = 0
        while remaining > 0:
            to_tick = diag.steps_until_tick(self.iterations)
            seg = min(remaining, to_tick)
            final = seg == remaining
            # Predict whether this segment ends on a stop check: checks
            # happen on the verdict cadence, and a diagnostics sample
            # only lands when the segment reaches the stride boundary.
            will_check = final or (
                seg == to_tick
                and (diag.samples + 1) % verdict_every == 0
                and self.iterations + seg >= stop.min_iterations
            )
            if use_grid:
                # Deferred sync between checks (as in _run_diagnosed);
                # any segment that might return must write the dict
                # back, with `sync_base` keeping last-move indices on
                # the span since the previous sync.
                self._run_steps_grid(
                    seg,
                    horizon=remaining,
                    sync=will_check,
                    sync_base=since_sync,
                )
                since_sync = 0 if will_check else since_sync + seg
            else:
                self._run_steps_dict(seg, horizon=remaining)
            remaining -= seg
            diag.observe_chain(self)
            if will_check and not final:
                reason = stop.satisfied(diag.summary(), self.iterations)
                if reason is not None:
                    return reason
            if self._state_hook is not None and self._maybe_state_hook():
                # The emission synced the dict early; restart the
                # deferred-sync span so later write-backs sort their
                # last-move indices against this new baseline.
                since_sync = 0
        if cap > 0:
            reason = stop.satisfied(diag.summary(), self.iterations)
            if reason is not None:
                return reason
        return capped_reason

    @staticmethod
    def _stop_check_due(diag, verdict_every: int, remaining: int) -> bool:
        """Whether a stop condition should be evaluated after a sample."""
        return remaining == 0 or diag.samples % verdict_every == 0

    def _run_steps_dict(
        self, steps: int, horizon: Optional[int] = None
    ) -> "SeparationChain":
        """The batched dict fast path (inlined step(); tests pin identity).

        ``horizon`` widens the worst-case refill demand to a longer
        enclosing run: passing the outer remaining step count makes a
        sequence of segmented calls draw ahead exactly as one
        ``run(horizon)`` would, so segmentation (used by the
        convergence diagnostics) leaves the final RNG state
        bit-identical too.
        """
        extra = 0 if horizon is None else horizon - steps
        self._grid_valid = False  # about to mutate the dict directly
        self._batch_valid = False
        system = self.system
        colors = system.colors
        colors_get = colors.get
        positions = self._positions
        n_particles = len(positions)
        swaps_enabled = self.swaps
        lam_pow = self._lam_pow
        gam_pow = self._gam_pow
        gam_pow_swap = self._gam_pow_swap
        log_lam = self._log_lam
        log_gam = self._log_gam
        move_ok = MOVE_OK
        e_src_table = E_SRC
        e_dst_table = E_DST
        ring_tables = RING_OFFSETS
        offsets = NEIGHBOR_OFFSETS
        src_indices = SRC_RING_INDICES
        dst_indices = DST_RING_INDICES
        rng = self.rng
        buffer = self._buffer
        pos = self._buffer_pos
        size = len(buffer)
        edge_total = system.edge_total
        hetero_total = system.hetero_total
        accepted_moves = 0
        accepted_swaps = 0

        for remaining in range(steps, 0, -1):
            if size - pos < 3:
                # Refill with at most the worst-case demand of the rest
                # of this run (3 draws/step) so over-draw stays bounded;
                # leftovers persist in self._buffer for the next call.
                # The consumed prefix is dropped in place (O(leftover),
                # at most 2 elements here) instead of slicing the buffer
                # into a fresh list, so no O(buffered) copy ever happens.
                need = 3 * (remaining + extra) - (size - pos)
                if pos:
                    del buffer[:pos]
                    pos = 0
                buffer.extend(
                    uniform_chunk(
                        rng, need if need < _RNG_CHUNK else _RNG_CHUNK
                    )
                )
                size = len(buffer)

            idx = int(buffer[pos] * n_particles)
            pos += 1
            src = positions[idx]
            ci = colors[src]
            d = int(buffer[pos] * 6)
            pos += 1
            dx, dy = offsets[d]
            x, y = src
            dst = (x + dx, y + dy)
            dst_color = colors_get(dst)
            if dst_color is not None and (not swaps_enabled or dst_color == ci):
                continue  # occupied target and no swap possible: no-op

            ring_offsets = ring_tables[d]
            ring_colors = []
            mask = 0
            bit = 1
            for rdx, rdy in ring_offsets:
                c = colors_get((x + rdx, y + rdy))
                ring_colors.append(c)
                if c is not None:
                    mask |= bit
                bit <<= 1

            if dst_color is None:
                # --- Expansion move (Algorithm 1, lines 3-8) ---
                e_src = e_src_table[mask]
                if e_src == 5:
                    continue
                if not move_ok[mask]:
                    continue
                e_dst = e_dst_table[mask]
                ei_src = 0
                for i in src_indices:
                    if ring_colors[i] == ci:
                        ei_src += 1
                ei_dst = 0
                for i in dst_indices:
                    if ring_colors[i] == ci:
                        ei_dst += 1
                ratio = (
                    lam_pow[e_dst - e_src + 5] * gam_pow[ei_dst - ei_src + 5]
                )
                if ratio != ratio:  # inf * 0 under extreme biases
                    log_ratio = (
                        (e_dst - e_src) * log_lam + (ei_dst - ei_src) * log_gam
                    )
                    ratio = math.inf if log_ratio > 0.0 else math.exp(log_ratio)
                if ratio < 1.0:
                    q = buffer[pos]
                    pos += 1
                    if q >= ratio:
                        continue
                # Accept: move the particle and update counters locally.
                del colors[src]
                colors[dst] = ci
                positions[idx] = dst
                edge_total += e_dst - e_src
                hetero_total += (e_dst - ei_dst) - (e_src - ei_src)
                accepted_moves += 1
                continue

            # --- Swap move (Algorithm 1, lines 9-10) ---
            cj = dst_color
            expo = 0
            for i in dst_indices:
                c = ring_colors[i]
                if c == ci:
                    expo += 1  # |N_i(l') \ {P}|
                elif c == cj:
                    expo -= 1  # |N_j(l')|
            for i in src_indices:
                c = ring_colors[i]
                if c == ci:
                    expo -= 1  # |N_i(l)|
                elif c == cj:
                    expo += 1  # |N_j(l) \ {Q}|
            ratio = gam_pow_swap[expo + 10]
            if ratio < 1.0:
                q = buffer[pos]
                pos += 1
                if q >= ratio:
                    continue
            colors[src] = cj
            colors[dst] = ci
            hetero_total -= expo
            accepted_swaps += 1

        system.edge_total = edge_total
        system.hetero_total = hetero_total
        self.iterations += steps
        self.accepted_moves += accepted_moves
        self.accepted_swaps += accepted_swaps
        self._buffer = buffer
        self._buffer_pos = pos
        return self

    # ------------------------------------------------------------------
    # Flat-grid kernel (integer-indexed arena backend)
    # ------------------------------------------------------------------

    def _run_steps_batch(self, steps: int) -> "SeparationChain":
        """Advance via the replica-batched NumPy kernel (R = 1).

        The kernel persists across run() calls so its proposal streams
        continue uninterrupted; any external mutation of ``system``
        (``step()``, ``refresh_positions()``) invalidates it, and the
        next run rebuilds from the current dict state with a fresh
        child seed drawn from the chain's ``random.Random`` stream.

        This is a **different RNG regime** from the dict/grid kernels:
        trajectories are statistically, not bit-wise, equivalent (see
        :mod:`repro.core.batch_kernel` and the statistical-equivalence
        suite).
        """
        if steps == 0:
            return self
        from repro.core.batch_kernel import BatchKernel

        kernel = self._batch_kernel
        if kernel is None or not self._batch_valid:
            kernel = BatchKernel(
                self.system,
                self.lam,
                self.gamma,
                replicas=1,
                seed=self.rng,
                swaps=self.swaps,
            )
            self._batch_kernel = kernel
            self._batch_valid = True
        # Round-level convergence sampling (None detaches); the hook
        # reads counters only, so the proposal streams are untouched.
        kernel.observer = self._obs_diag
        iters0 = int(kernel.iters[0])
        moves0 = int(kernel.acc_moves[0])
        swaps0 = int(kernel.acc_swaps[0])
        kernel.run(steps)
        self.iterations += int(kernel.iters[0]) - iters0
        self.accepted_moves += int(kernel.acc_moves[0]) - moves0
        self.accepted_swaps += int(kernel.acc_swaps[0]) - swaps0
        self._batch_sync()
        return self

    def _batch_sync(self) -> None:
        """Write the batch kernel's replica 0 back into ``system``.

        Counters come from the kernel's incremental arrays (cross-checked
        against from-scratch recomputation by the fuzz suite), so the
        sync is O(n) with no edge scan.
        """
        kernel = self._batch_kernel
        arena = kernel.arena
        colors = self.system.colors
        colors.clear()
        positions = kernel.positions(0)
        gp = kernel.gpos[: kernel.n]
        for node, gid in zip(positions, gp):
            colors[node] = int(arena[gid]) - 1
        self.system.edge_total = int(kernel.edge[0])
        self.system.hetero_total = int(kernel.het[0])
        self._positions = positions
        self._grid_valid = False  # arena (if any) no longer mirrors the dict

    def _grid_alloc(self, nodes: List[Node], values: List[int]) -> None:
        """(Re)build the arena around ``nodes`` with the current margin.

        ``values[i]`` is the arena value (color + 1) of ``nodes[i]``;
        ``self._gpos`` is rebuilt in the same order, so particle slot
        indices survive reallocation.  A parallel ``danger`` bytearray
        flags the 2-cell band along the border: ring reads reach at most
        2 cells from a particle, so as long as every particle stays out
        of the band all integer indexing is in bounds (and never wraps a
        row, because x-offsets are bounded by the same 2 < margin).
        """
        pad = self._grid_margin
        xs = [x for x, _ in nodes]
        ys = [y for _, y in nodes]
        ox = min(xs) - pad
        oy = min(ys) - pad
        width = max(xs) - min(xs) + 1 + 2 * pad
        height = max(ys) - min(ys) + 1 + 2 * pad
        arena = [0] * (width * height)
        danger = bytearray(width * height)
        for gy in (0, 1, height - 2, height - 1):
            base = gy * width
            for gx in range(width):
                danger[base + gx] = 1
        for gy in range(height):
            base = gy * width
            danger[base] = danger[base + 1] = 1
            danger[base + width - 2] = danger[base + width - 1] = 1
        gpos = []
        for (x, y), value in zip(nodes, values):
            node_id = (y - oy) * width + (x - ox)
            arena[node_id] = value
            gpos.append(node_id)
        self._arena = arena
        self._gdanger = danger
        self._gpos = gpos
        self._gW = width
        self._gH = height
        self._gox = ox
        self._goy = oy
        self._gmove = tuple(dy * width + dx for dx, dy in NEIGHBOR_OFFSETS)
        self._gring = tuple(
            tuple(rdy * width + rdx for rdx, rdy in RING_OFFSETS[d])
            for d in range(6)
        )
        # Swap proposals only read the six *exclusive* ring positions
        # (the two common neighbors cancel in the exponent), so give
        # them a dedicated 6-tuple to unpack.
        self._gring_swap = tuple(
            (r[1], r[2], r[3], r[5], r[6], r[7]) for r in self._gring
        )
        # Per-(ci, cj) swap-exponent contribution of one ring value v:
        # +1 if v is ci, -1 if v is cj, 0 otherwise (arena encoding:
        # 0 = empty, c + 1 = color c).  Replaces twelve comparisons per
        # swap proposal with six table reads.
        k = self.system.num_colors + 1
        table = [[[0] * k for _ in range(k)] for _ in range(k)]
        for civ in range(1, k):
            for cjv in range(1, k):
                if civ != cjv:
                    table[civ][cjv][civ] = 1
                    table[civ][cjv][cjv] = -1
        self._gswap_contrib = table

    def _grid_build(self) -> None:
        """Embed the current configuration into a fresh flat arena.

        Also records each particle slot's rank in the *dict iteration
        order* (``self._grid_rank``): the sync-back uses it to
        reconstruct the exact insertion order the dict kernel would
        have produced, so downstream consumers of dict order (e.g.
        ``refresh_positions`` or order-preserving serialization) cannot
        tell the kernels apart.
        """
        colors = self.system.colors
        positions = self._positions
        self._grid_alloc(
            positions, [colors[node] + 1 for node in positions]
        )
        rank_of = {node: rank for rank, node in enumerate(colors)}
        self._grid_rank = [rank_of[node] for node in positions]
        self._grid_last = [0] * len(positions)
        self._grid_valid = True

    def _grid_regrow(self) -> None:
        """Double the margin and re-embed after a border-band landing.

        Called from the hot loop when an accepted move enters the
        danger band.  Margin doubling keeps the total regrow work
        amortized: each regrow at least doubles the number of moves a
        particle needs to reach the new band.
        """
        width = self._gW
        ox = self._gox
        oy = self._goy
        arena = self._arena
        nodes = []
        values = []
        for node_id in self._gpos:
            nodes.append((node_id % width + ox, node_id // width + oy))
            values.append(arena[node_id])
        self._grid_margin *= 2
        self._grid_regrows += 1
        self._grid_alloc(nodes, values)

    def _grid_sync(self) -> None:
        """Write the arena state back into ``ParticleSystem.colors``.

        Reproduces the dict kernel's insertion order exactly: a dict
        move is ``del colors[src]; colors[dst] = c`` — the particle is
        re-inserted at the *end* — so the final order is the particles
        untouched this run (in their pre-run dict order) followed by
        the moved ones in order of their last accepted move.  Swaps
        assign existing keys and never reorder.  ``self._positions`` is
        refreshed alongside, and the new order becomes the rank
        baseline for the next grid run.
        """
        gpos = self._gpos
        arena = self._arena
        width = self._gW
        ox = self._gox
        oy = self._goy
        last = self._grid_last
        rank = self._grid_rank
        order = sorted(
            range(len(gpos)), key=lambda i: (last[i], rank[i])
        )
        colors = self.system.colors
        colors.clear()
        positions = self._positions
        for new_rank, i in enumerate(order):
            node_id = gpos[i]
            node = (node_id % width + ox, node_id // width + oy)
            colors[node] = arena[node_id] - 1
            positions[i] = node
            rank[i] = new_rank
            last[i] = 0

    def _run_steps_grid(
        self,
        steps: int,
        horizon: Optional[int] = None,
        sync: bool = True,
        sync_base: int = 0,
    ) -> "SeparationChain":
        """The flat-grid batched run loop (bit-identical to the dict path).

        Pure integer indexing: particle slots hold arena ids, moves add
        per-direction deltas, and the 8-node edge ring is read through
        precomputed integer offsets — no tuple construction, no
        hashing.  RNG consumption (index, direction, and q only when
        the bias ratio is below 1) mirrors the dict kernel draw for
        draw.  The canonical dict is re-synced on exit.  ``horizon``
        has the same segmented-refill semantics as in
        :meth:`_run_steps_dict`.

        ``sync=False`` defers the dict write-back: segmented callers
        (the convergence diagnostics) sync only once, on the final
        segment, because the between-segment observers read counters
        rather than colors.  ``sync_base`` then offsets the recorded
        last-move step indices by the steps already executed in the
        enclosing run, so the deferred sync sorts by *absolute* step
        of last move — reproducing the exact insertion order a single
        unsegmented call would have produced.
        """
        extra = 0 if horizon is None else horizon - steps
        last_base = sync_base + 1
        if not self._grid_valid:
            self._grid_build()
        system = self.system
        arena = self._arena
        danger = self._gdanger
        gpos = self._gpos
        move_deltas = self._gmove
        ring_deltas = self._gring
        swap_rings = self._gring_swap
        swap_contrib = self._gswap_contrib
        last_moved = self._grid_last
        n_particles = len(gpos)
        int_ = int  # local alias: the hot loop calls it 2-3x per step
        no_swaps = not self.swaps
        lam_pow = self._lam_pow
        gam_pow = self._gam_pow
        gam_pow_swap = self._gam_pow_swap
        log_lam = self._log_lam
        log_gam = self._log_gam
        move_delta = MOVE_DELTA
        reject = _MOVE_REJECT
        rng = self.rng
        buffer = self._buffer
        pos = self._buffer_pos
        # `limit` is the last buffer index from which a full step's worst
        # case (3 draws) can be served; hoisting it saves a subtraction
        # on every iteration of the hot loop.
        limit = len(buffer) - 3
        edge_total = system.edge_total
        hetero_total = system.hetero_total
        accepted_moves = 0
        accepted_swaps = 0

        for remaining in range(steps, 0, -1):
            if pos > limit:
                # Same consumed-prefix refill as the dict kernel; the
                # carried buffer keeps mixed kernel/step() sequences on
                # one sequentially-consumed stream.
                need = 3 * (remaining + extra) - (len(buffer) - pos)
                if pos:
                    del buffer[:pos]
                    pos = 0
                buffer.extend(
                    uniform_chunk(
                        rng, need if need < _RNG_CHUNK else _RNG_CHUNK
                    )
                )
                limit = len(buffer) - 3

            idx = int_(buffer[pos] * n_particles)
            src = gpos[idx]
            civ = arena[src]
            d = int_(buffer[pos + 1] * 6)
            pos += 2
            dst = src + move_deltas[d]
            dstv = arena[dst]
            if dstv:
                # Same-color first: it is the single most common outcome
                # in well-mixed configurations, so it short-circuits.
                if dstv == civ or no_swaps:
                    continue  # occupied target, no swap possible: no-op

                # --- Swap move (Algorithm 1, lines 9-10) ---
                # The two common neighbors (ring 0 and 4) contribute to
                # both endpoint counts and cancel in the exponent, so
                # only the six exclusive ring positions are read.
                r1, r2, r3, r5, r6, r7 = swap_rings[d]
                contrib = swap_contrib[civ][dstv]
                expo = (
                    contrib[arena[src + r1]]
                    + contrib[arena[src + r2]]
                    + contrib[arena[src + r3]]
                    - contrib[arena[src + r5]]
                    - contrib[arena[src + r6]]
                    - contrib[arena[src + r7]]
                )
                ratio = gam_pow_swap[expo + 10]
                if ratio < 1.0:
                    q = buffer[pos]
                    pos += 1
                    if q >= ratio:
                        continue
                arena[src] = dstv
                arena[dst] = civ
                hetero_total -= expo
                accepted_swaps += 1
                continue

            # --- Expansion move (Algorithm 1, lines 3-8) ---
            r0, r1, r2, r3, r4, r5, r6, r7 = ring_deltas[d]
            v0 = arena[src + r0]
            v1 = arena[src + r1]
            v2 = arena[src + r2]
            v3 = arena[src + r3]
            v4 = arena[src + r4]
            v5 = arena[src + r5]
            v6 = arena[src + r6]
            v7 = arena[src + r7]
            de = move_delta[
                (v0 > 0)
                | (v1 > 0) << 1
                | (v2 > 0) << 2
                | (v3 > 0) << 3
                | (v4 > 0) << 4
                | (v5 > 0) << 5
                | (v6 > 0) << 6
                | (v7 > 0) << 7
            ]
            if de == reject:
                continue
            common = (v0 == civ) + (v4 == civ)
            ei_src = common + (v5 == civ) + (v6 == civ) + (v7 == civ)
            ei_dst = common + (v1 == civ) + (v2 == civ) + (v3 == civ)
            dei = ei_dst - ei_src
            ratio = lam_pow[de + 5] * gam_pow[dei + 5]
            if ratio != ratio:  # inf * 0 under extreme biases
                log_ratio = de * log_lam + dei * log_gam
                ratio = math.inf if log_ratio > 0.0 else math.exp(log_ratio)
            if ratio < 1.0:
                q = buffer[pos]
                pos += 1
                if q >= ratio:
                    continue
            # Accept: move the particle and update counters locally.
            arena[src] = 0
            arena[dst] = civ
            gpos[idx] = dst
            last_moved[idx] = last_base + steps - remaining
            edge_total += de
            hetero_total += de - dei
            accepted_moves += 1
            if danger[dst]:
                # The blob reached the border band: regrow (margin
                # doubles, everything re-embeds) and reload locals.
                self._grid_regrow()
                arena = self._arena
                danger = self._gdanger
                gpos = self._gpos
                move_deltas = self._gmove
                ring_deltas = self._gring
                swap_rings = self._gring_swap
                swap_contrib = self._gswap_contrib

        system.edge_total = edge_total
        system.hetero_total = hetero_total
        self.iterations += steps
        self.accepted_moves += accepted_moves
        self.accepted_swaps += accepted_swaps
        self._buffer = buffer
        self._buffer_pos = pos
        if sync:
            self._grid_sync()
        return self

    # ------------------------------------------------------------------
    # Exact per-proposal probabilities (used by repro.markov.exact)
    # ------------------------------------------------------------------

    def move_acceptance_probability(self, src: Node, dst: Node) -> float:
        """Probability a proposed move ``src -> dst`` is accepted.

        Zero when the move is disallowed by condition (i) or Properties
        4/5.  This mirrors :meth:`step` exactly but without mutating
        state; the exact-transition-matrix builder relies on it.
        """
        colors = self.system.colors
        if src not in colors or dst in colors:
            return 0.0
        details = evaluate_move(colors, src, dst, self.lam, self.gamma)
        return details[0]

    def swap_acceptance_probability(self, u: Node, v: Node) -> float:
        """Probability a proposed swap of ``u`` and ``v`` is accepted."""
        if not self.swaps:
            return 0.0
        colors = self.system.colors
        if u not in colors or v not in colors or colors[u] == colors[v]:
            return 0.0
        return evaluate_swap(colors, u, v, self.gamma)[0]

    def set_parameters(
        self, lam: Optional[float] = None, gamma: Optional[float] = None
    ) -> None:
        """Change the bias parameters mid-run (for annealing schedules).

        Rebuilds the internal power tables; the chain then targets the
        stationary distribution of the new parameters.
        """
        if lam is not None:
            if lam <= 0:
                raise ValueError(f"lambda must be positive, got {lam}")
            self.lam = float(lam)
            self._lam_pow = _power_table(self.lam, 5)
            self._log_lam = math.log(self.lam)
        if gamma is not None:
            if gamma <= 0:
                raise ValueError(f"gamma must be positive, got {gamma}")
            self.gamma = float(gamma)
            self._gam_pow = _power_table(self.gamma, 5)
            self._gam_pow_swap = _power_table(self.gamma, 10)
            self._log_gam = math.log(self.gamma)
        if self._batch_kernel is not None:
            self._batch_kernel.set_parameters(self.lam, self.gamma)

    def refresh_positions(self) -> None:
        """Re-sync the internal particle list with the system state.

        Call after mutating ``self.system`` outside the chain (the chain
        otherwise assumes exclusive ownership while running).  Any flat
        arena built by a previous grid run is invalidated alongside: the
        external mutation may have moved, added, or removed particles the
        arena still reflects.
        """
        self._positions = list(self.system.colors)
        self._grid_valid = False
        self._batch_valid = False

    # ------------------------------------------------------------------
    # Mid-run durability: state snapshots (crash-consistent resume)
    # ------------------------------------------------------------------

    def set_state_hook(self, hook, every: int = 0) -> None:
        """Attach a mid-run state-snapshot callback.

        ``hook(chain)`` fires at segment boundaries (diagnostics-stride
        ticks, stop-check points, and ``run()`` call boundaries) once at
        least ``every`` iterations have passed since the last emission.
        At every emission point the canonical colors dict has been
        written back, so ``hook`` may call :meth:`export_state` and
        serialize ``chain.system`` directly.

        The hook never consumes randomness: trajectories, counters, and
        the final RNG state are bit-identical between two runs with the
        *same* cadence (one interrupted and restored, one not).  A run
        with a different ``every`` — or none — may produce a different
        final dict *insertion order* (the emission syncs the grid
        kernel's write-back early), though never different occupancy,
        counters, or RNG state.

        Snapshots are supported on the scalar kernels with a stdlib
        ``random.Random`` stream only; the batch backend snapshots at
        the kernel level instead (see ``BatchKernel.export_state``).
        Passing ``hook=None`` detaches.
        """
        if hook is not None and every < 1:
            raise ValueError(
                f"state-hook interval must be positive, got {every}"
            )
        self._state_hook = hook
        self._state_every = int(every) if hook is not None else 0
        self._state_last = self.iterations

    def _maybe_state_hook(self) -> bool:
        """Fire the state hook if due; True when an emission happened."""
        if self.iterations - self._state_last < self._state_every:
            return False
        if not self._batch_rng or self.backend == "batch":
            return False
        if self._grid_valid:
            self._grid_sync()
        self._state_last = self.iterations
        self._state_hook(self)
        return True

    def export_state(self) -> Dict[str, object]:
        """JSON-able mid-run chain state (everything but the system).

        Captures the counters, the full ``random.Random`` generator
        state, the unconsumed tail of the draw-ahead buffer, and the
        particle *slot order* (``self._positions``).  The slot order
        matters: particle selection indexes the slot list, and moves
        update slots in place while the colors dict is reordered by
        last-accepted-move, so mid-run the two permutations differ —
        rebuilding slots from dict order would silently change which
        particle each RNG draw selects.  The configuration itself is
        *not* included — the caller serializes ``chain.system`` (synced
        here) alongside, via whichever codec it uses for checkpoints.  Restoring the pair into a fresh chain
        via :meth:`restore_state` and replaying the remaining schedule
        reproduces the uninterrupted run bit for bit.
        """
        if not self._batch_rng:
            raise RuntimeError(
                "state export requires a plain random.Random stream"
            )
        if self.backend == "batch":
            raise RuntimeError(
                "the batch backend snapshots at the kernel level; "
                "use BatchKernel.export_state"
            )
        if self._grid_valid:
            self._grid_sync()
        version, internal, gauss = self.rng.getstate()
        return {
            "kind": "chain",
            "lam": self.lam,
            "gamma": self.gamma,
            "swaps": self.swaps,
            "iterations": self.iterations,
            "accepted_moves": self.accepted_moves,
            "accepted_swaps": self.accepted_swaps,
            "rng_state": [version, list(internal), gauss],
            "buffer": list(self._buffer[self._buffer_pos:]),
            "positions": [list(node) for node in self._positions],
        }

    def restore_state(self, payload: Dict[str, object]) -> None:
        """Restore counters/RNG/buffer from :meth:`export_state` output.

        The caller must have loaded the matching configuration into
        ``self.system`` *first*; the slot order is taken from the
        payload and validated against the dict's key set.  Raises
        ``ValueError`` when the payload does not match this chain's
        parameters or system.
        """
        if payload.get("kind") != "chain":
            raise ValueError(
                f"expected a chain state payload, got {payload.get('kind')!r}"
            )
        if (
            float(payload["lam"]) != self.lam
            or float(payload["gamma"]) != self.gamma
            or bool(payload["swaps"]) != self.swaps
        ):
            raise ValueError(
                "chain state parameters do not match this chain"
            )
        version, internal, gauss = payload["rng_state"]
        self.rng.setstate(
            (
                int(version),
                tuple(int(v) for v in internal),
                None if gauss is None else float(gauss),
            )
        )
        self.iterations = int(payload["iterations"])
        self.accepted_moves = int(payload["accepted_moves"])
        self.accepted_swaps = int(payload["accepted_swaps"])
        self._buffer = [float(v) for v in payload["buffer"]]
        self._buffer_pos = 0
        positions = [tuple(node) for node in payload["positions"]]
        if set(positions) != set(self.system.colors) or len(positions) != len(
            self.system.colors
        ):
            raise ValueError(
                "chain state slot order does not match the loaded system"
            )
        self._positions = positions
        self._grid_valid = False
        self._batch_valid = False
        self._state_last = self.iterations

    def acceptance_rate(self) -> float:
        """Fraction of iterations that changed the configuration.

        Returns ``float("nan")`` before any iteration: a chain that has
        not run yet is *not* the same as one that ran and froze, and a
        silent ``0.0`` made the two indistinguishable to monitoring.
        Callers rendering the value should show NaN as ``n/a``.
        """
        if self.iterations == 0:
            return float("nan")
        return (self.accepted_moves + self.accepted_swaps) / self.iterations

    def __repr__(self) -> str:
        return (
            f"SeparationChain(n={self.system.n}, lam={self.lam}, "
            f"gamma={self.gamma}, swaps={self.swaps}, "
            f"iterations={self.iterations})"
        )


# ----------------------------------------------------------------------
# Pure move evaluation (shared with the exact-chain and distributed layers)
# ----------------------------------------------------------------------


def evaluate_move(
    colors: Dict[Node, int],
    src: Node,
    dst: Node,
    lam: float,
    gamma: float,
) -> Tuple[float, int, int]:
    """Acceptance probability and (Δe, Δe_i) of a move ``src -> dst``.

    Requires ``src`` occupied, ``dst`` an empty neighbor.  Returns
    ``(probability, delta_edges, delta_same_color_edges)`` where the
    probability already includes conditions (i) and (ii) — it is zero for
    invalid moves.
    """
    ci = colors[src]
    d = direction_between(src, dst)
    x, y = src
    ring_colors = []
    mask = 0
    bit = 1
    for rdx, rdy in RING_OFFSETS[d]:
        c = colors.get((x + rdx, y + rdy))
        ring_colors.append(c)
        if c is not None:
            mask |= bit
        bit <<= 1
    e_src = E_SRC[mask]
    if e_src == 5 or not MOVE_OK[mask]:
        return 0.0, 0, 0
    e_dst = E_DST[mask]
    ei_src = sum(1 for i in SRC_RING_INDICES if ring_colors[i] == ci)
    ei_dst = sum(1 for i in DST_RING_INDICES if ring_colors[i] == ci)
    ratio = bias_ratio(lam, gamma, e_dst - e_src, ei_dst - ei_src)
    return min(1.0, ratio), e_dst - e_src, ei_dst - ei_src


def evaluate_swap(
    colors: Dict[Node, int],
    u: Node,
    v: Node,
    gamma: float,
) -> Tuple[float, int]:
    """Acceptance probability and Δa of swapping particles at ``u, v``.

    Requires both nodes occupied by different colors.  Returns
    ``(probability, delta_homogeneous_edges)``.  The exponent is symmetric
    in ``u`` and ``v``, so either endpoint initiating yields the same
    probability (used by the 1/(3n) factor in Lemma 9's proof).
    """
    ci = colors[u]
    cj = colors[v]
    if ci == cj:
        raise ValueError("swap requires particles of different colors")
    d = direction_between(u, v)
    x, y = u
    ring_colors = []
    for rdx, rdy in RING_OFFSETS[d]:
        ring_colors.append(colors.get((x + rdx, y + rdy)))
    expo = 0
    for i in DST_RING_INDICES:
        c = ring_colors[i]
        if c == ci:
            expo += 1
        elif c == cj:
            expo -= 1
    for i in SRC_RING_INDICES:
        c = ring_colors[i]
        if c == ci:
            expo -= 1
        elif c == cj:
            expo += 1
    return min(1.0, _clamped_power(gamma, expo)), expo


def stationary_log_weight(
    system: ParticleSystem, lam: float, gamma: float
) -> float:
    """Log of the unnormalized stationary weight (Lemma 9 form)."""
    p = system.perimeter()
    return -p * math.log(lam * gamma) - system.hetero_total * math.log(gamma)
