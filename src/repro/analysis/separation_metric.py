"""(β, δ)-separation certification (Definition 3).

A 2-heterogeneous configuration σ is (β, δ)-separated when there exists a
particle subset R with:

1. at most :math:`\\beta\\sqrt{n}` configuration edges crossing between R
   and its complement;
2. density of the reference color inside R at least :math:`1 - \\delta`;
3. density of the reference color outside R at most :math:`\\delta`.

The definition is *existential*, and R need not be connected, so deciding
it exactly requires searching over subsets.  We provide:

* :func:`is_separated_exact` — exhaustive search, exponential in ``n``
  (practical to ``n`` around 18; used on enumerated small systems);
* :func:`best_certificate` — polynomial-time certificate search combining
  monochromatic-cluster unions and minimum-cut relaxations (an exact
  integer max-flow on the particle adjacency).  Certificates are always
  *verified* against the definition before being returned, so a returned
  certificate is sound; only completeness (failing to find an R that
  exists) is heuristic.

Both colors are tried as the reference color ``c1`` — the definition
names a specific color, but a system separated with respect to either
color has the large monochromatic regions the paper describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lattice.triangular import NEIGHBOR_OFFSETS, Node
from repro.system.configuration import ParticleSystem


@dataclass(frozen=True)
class SeparationCertificate:
    """A verified witness that a configuration is (β, δ)-separated.

    Attributes record the witnessing subset and the quantities entering
    Definition 3, so callers can report how much slack the certificate
    has.
    """

    region: FrozenSet[Node]
    color: int
    cut_edges: int
    density_inside: float
    density_outside: float
    beta_achieved: float

    def satisfies(self, beta: float, delta: float) -> bool:
        """Whether this witness meets the given (β, δ) thresholds."""
        return (
            self.beta_achieved <= beta
            and self.density_inside >= 1.0 - delta
            and self.density_outside <= delta
        )


def cut_edge_count(system: ParticleSystem, region: Set[Node]) -> int:
    """Number of configuration edges with exactly one endpoint in ``region``."""
    colors = system.colors
    count = 0
    for x, y in region:
        for dx, dy in NEIGHBOR_OFFSETS:
            nbr = (x + dx, y + dy)
            if nbr in colors and nbr not in region:
                count += 1
    return count


def evaluate_region(
    system: ParticleSystem, region: Set[Node], color: int
) -> Optional[SeparationCertificate]:
    """Measure a candidate region against Definition 3's quantities.

    Returns ``None`` for degenerate regions (empty or all particles,
    which cannot certify separation of a genuinely bichromatic system
    for δ < 1/2) and for regions containing unoccupied nodes (stale
    certificates measured against a different configuration).
    """
    n = system.n
    if not region or len(region) == n:
        return None
    colors = system.colors
    if any(node not in colors for node in region):
        return None
    inside_total = len(region)
    inside_color = sum(1 for node in region if colors[node] == color)
    outside_total = n - inside_total
    outside_color = sum(
        1 for node, c in colors.items() if c == color and node not in region
    )
    cut = cut_edge_count(system, region)
    return SeparationCertificate(
        region=frozenset(region),
        color=color,
        cut_edges=cut,
        density_inside=inside_color / inside_total,
        density_outside=outside_color / outside_total,
        beta_achieved=cut / math.sqrt(n),
    )


def verify_certificate(
    system: ParticleSystem,
    certificate: SeparationCertificate,
    beta: float,
    delta: float,
) -> bool:
    """Re-measure a certificate's region and check it against (β, δ).

    Guards against stale certificates: all quantities are recomputed from
    the current system state.
    """
    measured = evaluate_region(system, set(certificate.region), certificate.color)
    return measured is not None and measured.satisfies(beta, delta)


# ----------------------------------------------------------------------
# Exact decision (exponential; small systems only)
# ----------------------------------------------------------------------


def is_separated_exact(
    system: ParticleSystem, beta: float, delta: float, max_n: int = 18
) -> bool:
    """Exhaustively decide (β, δ)-separation.

    Searches all subsets R over each reference color.  Raises for systems
    larger than ``max_n`` to prevent accidental exponential blowups; use
    :func:`best_certificate` for larger systems.
    """
    n = system.n
    if n > max_n:
        raise ValueError(
            f"exact separation check is exponential; n={n} exceeds max_n={max_n}"
        )
    nodes = sorted(system.colors)
    for color in range(system.num_colors):
        for size in range(1, n):
            for subset in combinations(nodes, size):
                cert = evaluate_region(system, set(subset), color)
                if cert is not None and cert.satisfies(beta, delta):
                    return True
    return False


# ----------------------------------------------------------------------
# Polynomial-time certificate search
# ----------------------------------------------------------------------


def _cluster_union_candidates(
    system: ParticleSystem, color: int
) -> List[Set[Node]]:
    """Candidate regions: unions of the largest same-color clusters."""
    colors = system.colors
    # Collect clusters of `color` with their node sets, largest first.
    seen: Set[Node] = set()
    clusters: List[Set[Node]] = []
    for start, c in colors.items():
        if c != color or start in seen:
            continue
        component = {start}
        stack = [start]
        seen.add(start)
        while stack:
            x, y = stack.pop()
            for dx, dy in NEIGHBOR_OFFSETS:
                nbr = (x + dx, y + dy)
                if nbr not in seen and colors.get(nbr) == color:
                    seen.add(nbr)
                    component.add(nbr)
                    stack.append(nbr)
        clusters.append(component)
    clusters.sort(key=len, reverse=True)
    candidates: List[Set[Node]] = []
    union: Set[Node] = set()
    for cluster in clusters[:6]:
        union = union | cluster
        candidates.append(set(union))
    return candidates


#: Capacities of the min-cut relaxation, counted in quarters so the
#: max-flow stays integral: a configuration edge is 4, and the terminal
#: edges sweep the misclassification penalty μ = 0.25, 0.5, 1, 2, 4.
_EDGE_CAPACITY = 4
_TERMINAL_CAPACITIES = (1, 2, 4, 8, 16)


def _sink_reachable(
    arcs: List[List[int]], heads: List[int], cap: List[int], source: int, sink: int
) -> List[bool]:
    """Max-flow from ``source`` to ``sink`` (Dinic), then residual reachability.

    Arcs come in pairs: arc ``a`` runs to ``heads[a]`` and ``a ^ 1`` is its
    reverse; ``arcs[u]`` lists the arcs leaving ``u``.  ``cap`` holds the
    residual capacities and is updated in place.  Returns, per node,
    whether it can still reach ``sink`` in the residual graph of the
    maximum flow.  The nodes that cannot reach it form the maximal
    source side of a minimum cut, which is the same for every maximum
    flow.
    """
    size = len(arcs)
    while True:
        level = [-1] * size
        level[source] = 0
        queue = [source]
        for u in queue:
            for a in arcs[u]:
                v = heads[a]
                if cap[a] and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            break
        # Blocking flow along the level graph: advance along admissible
        # arcs, augment at the sink, retreat from dead ends.
        cursor = [0] * size
        path: List[int] = []
        u = source
        while True:
            if u == sink:
                pushed = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                saturated = next(k for k, a in enumerate(path) if not cap[a])
                del path[saturated:]
                u = heads[path[-1]] if path else source
                continue
            out = arcs[u]
            end = len(out)
            deeper = level[u] + 1
            i = cursor[u]
            while i < end:
                a = out[i]
                if cap[a] and level[heads[a]] == deeper:
                    break
                i += 1
            cursor[u] = i
            if i < end:
                path.append(a)
                u = heads[a]
            elif u == source:
                break
            else:
                u = heads[path.pop() ^ 1]
                cursor[u] += 1
    reachable = [False] * size
    reachable[sink] = True
    queue = [sink]
    for v in queue:
        for a in arcs[v]:
            u = heads[a]
            if cap[a ^ 1] and not reachable[u]:
                reachable[u] = True
                queue.append(u)
    return reachable


def _mincut_candidates(system: ParticleSystem, color: int) -> List[Set[Node]]:
    """Candidate regions from s-t minimum cuts.

    Takes the configuration graph with unit capacities, attaches every
    particle of the reference color to a super-source and every other
    particle to a super-sink with capacity μ, and sweeps the
    misclassification penalty μ.  Small μ tolerates impurities (few cut
    edges); large μ forces color purity.  Each min cut yields a candidate
    R = the maximal source side.
    """
    colors = system.colors
    nodes = list(colors)
    index = {node: i for i, node in enumerate(nodes)}
    source, sink = len(nodes), len(nodes) + 1
    arcs: List[List[int]] = [[] for _ in range(len(nodes) + 2)]
    heads: List[int] = []

    def add_pair(u: int, v: int) -> None:
        arcs[u].append(len(heads))
        heads.append(v)
        arcs[v].append(len(heads))
        heads.append(u)

    for u, (x, y) in enumerate(nodes):
        for dx, dy in NEIGHBOR_OFFSETS:
            v = index.get((x + dx, y + dy))
            if v is not None and u < v:
                add_pair(u, v)
    edge_arcs = len(heads)
    # One directed terminal arc per particle, after the edge arcs.
    for u, node in enumerate(nodes):
        if colors[node] == color:
            add_pair(source, u)
        else:
            add_pair(u, sink)
    candidates: List[Set[Node]] = []
    for mu in _TERMINAL_CAPACITIES:
        cap = [_EDGE_CAPACITY] * edge_arcs + [mu, 0] * len(nodes)
        reachable = _sink_reachable(arcs, heads, cap, source, sink)
        region = {node for u, node in enumerate(nodes) if not reachable[u]}
        if region and len(region) < len(colors):
            candidates.append(region)
    return candidates


def candidate_certificates(system: ParticleSystem) -> List[SeparationCertificate]:
    """Every verified certificate the heuristics find, in search order.

    For each reference color, the cluster-union regions and then the
    min-cut regions, each measured by :func:`evaluate_region`;
    degenerate regions are dropped.  The selection functions below pick
    from this list, so one search serves any number of (β, δ) queries.
    """
    certificates: List[SeparationCertificate] = []
    for color in range(system.num_colors):
        candidates = _cluster_union_candidates(system, color)
        candidates.extend(_mincut_candidates(system, color))
        for region in candidates:
            cert = evaluate_region(system, region, color)
            if cert is not None:
                certificates.append(cert)
    return certificates


def select_certificate(
    certificates: Sequence[SeparationCertificate],
    beta: Optional[float] = None,
    delta: Optional[float] = None,
) -> Optional[SeparationCertificate]:
    """The best of ``certificates``, ranked as by :func:`best_certificate`."""
    if not certificates:
        return None
    if beta is not None and delta is not None:
        satisfying = [c for c in certificates if c.satisfies(beta, delta)]
        if satisfying:
            return min(satisfying, key=lambda c: c.beta_achieved)
    return min(certificates, key=_certificate_badness)


def best_certificate(
    system: ParticleSystem,
    beta: Optional[float] = None,
    delta: Optional[float] = None,
) -> Optional[SeparationCertificate]:
    """Best verified separation certificate found by the heuristics.

    Tries cluster-union and min-cut candidate regions for each reference
    color and returns the certificate minimizing
    ``beta_achieved + max(density violations)`` — or, when (β, δ) are
    given, the first certificate satisfying them (preferring the
    smallest ``beta_achieved``).  Returns ``None`` when no nondegenerate
    candidate exists.
    """
    return select_certificate(candidate_certificates(system), beta, delta)


def _certificate_badness(cert: SeparationCertificate) -> float:
    """Scalar ranking: smaller is a better separation witness."""
    impurity = max(1.0 - cert.density_inside, cert.density_outside)
    return cert.beta_achieved + 10.0 * impurity


def is_separated(
    system: ParticleSystem,
    beta: float,
    delta: float,
    exact_threshold: int = 12,
) -> bool:
    """Decide (β, δ)-separation: exactly for small systems, else heuristically.

    For ``n`` up to ``exact_threshold`` the decision is exact; beyond it a
    verified certificate is required, so ``True`` answers are always
    sound while ``False`` answers may rarely be false negatives.
    """
    if system.n <= exact_threshold:
        return is_separated_exact(system, beta, delta)
    cert = best_certificate(system, beta, delta)
    return cert is not None and cert.satisfies(beta, delta)


def separation_quality(system: ParticleSystem) -> Dict[str, float]:
    """Summary of how separated a configuration is.

    Returns the best certificate's β and impurity, plus the heterogeneous
    edge density — the quantities plotted by the experiment harness.
    """
    cert = best_certificate(system)
    hetero_density = (
        system.hetero_total / system.edge_total if system.edge_total else 0.0
    )
    if cert is None:
        return {
            "beta": math.inf,
            "impurity": 1.0,
            "hetero_density": hetero_density,
        }
    return {
        "beta": cert.beta_achieved,
        "impurity": max(1.0 - cert.density_inside, cert.density_outside),
        "hetero_density": hetero_density,
    }


def minimum_beta_for_delta(
    system: ParticleSystem, delta: float
) -> Tuple[float, Optional[SeparationCertificate]]:
    """Smallest certified β at the given δ tolerance (∞ if none found)."""
    qualifying = [
        cert
        for cert in candidate_certificates(system)
        if cert.density_inside >= 1.0 - delta and cert.density_outside <= delta
    ]
    if not qualifying:
        return math.inf, None
    best = min(qualifying, key=lambda c: c.beta_achieved)
    return best.beta_achieved, best
