"""Tests for (β, δ)-separation certification (Definition 3)."""

import math

import pytest

from repro.analysis import separation_metric
from repro.analysis.separation_metric import (
    _mincut_candidates,
    best_certificate,
    cut_edge_count,
    evaluate_region,
    is_separated,
    is_separated_exact,
    minimum_beta_for_delta,
    separation_quality,
    verify_certificate,
)
from repro.core.separation_chain import SeparationChain
from repro.lattice.triangular import NEIGHBOR_OFFSETS
from repro.system.configuration import ParticleSystem
from repro.system.initializers import (
    checkerboard_system,
    hexagon_system,
    random_blob_system,
    separated_system,
)

#: (λ, γ) at the four corners of the Figure 3 grid.
FIGURE3_CORNERS = ((0.5, 0.8), (0.5, 6.0), (6.0, 0.8), (6.0, 6.0))


def sorted_line(n, colors):
    nodes = [(i, 0) for i in range(n)]
    return ParticleSystem.from_nodes(nodes, colors)


class TestCutEdges:
    def test_line_cut(self):
        system = sorted_line(4, [0, 0, 1, 1])
        assert cut_edge_count(system, {(0, 0), (1, 0)}) == 1

    def test_full_region_has_no_cut(self):
        system = sorted_line(4, [0, 0, 1, 1])
        assert cut_edge_count(system, set(system.colors)) == 0


class TestEvaluateRegion:
    def test_perfect_split(self):
        system = sorted_line(4, [0, 0, 1, 1])
        cert = evaluate_region(system, {(0, 0), (1, 0)}, color=0)
        assert cert is not None
        assert cert.cut_edges == 1
        assert cert.density_inside == 1.0
        assert cert.density_outside == 0.0
        assert math.isclose(cert.beta_achieved, 0.5)

    def test_degenerate_regions_rejected(self):
        system = sorted_line(4, [0, 0, 1, 1])
        assert evaluate_region(system, set(), 0) is None
        assert evaluate_region(system, set(system.colors), 0) is None

    def test_satisfies_thresholds(self):
        system = sorted_line(4, [0, 0, 1, 1])
        cert = evaluate_region(system, {(0, 0), (1, 0)}, color=0)
        assert cert.satisfies(beta=0.6, delta=0.1)
        assert not cert.satisfies(beta=0.4, delta=0.1)


class TestExactDecision:
    def test_sorted_line_is_separated(self):
        system = sorted_line(6, [0, 0, 0, 1, 1, 1])
        assert is_separated_exact(system, beta=0.5, delta=0.1)

    def test_alternating_line_is_not(self):
        system = sorted_line(6, [0, 1, 0, 1, 0, 1])
        assert not is_separated_exact(system, beta=0.5, delta=0.1)

    def test_alternating_separated_at_huge_beta(self):
        """With β large enough, any bipartition qualifies (Definition 3
        degenerates) — the metric is only meaningful for β = O(1)."""
        system = sorted_line(6, [0, 1, 0, 1, 0, 1])
        assert is_separated_exact(system, beta=10.0, delta=0.1)

    def test_size_guard(self):
        system = hexagon_system(30, seed=0)
        with pytest.raises(ValueError):
            is_separated_exact(system, 1.0, 0.1)

    def test_exact_matches_heuristic_on_separated_instances(self):
        """Whenever the heuristic certifies, the exact decision agrees
        (soundness in the small-n regime where both run)."""
        for seed in range(5):
            system = hexagon_system(12, seed=seed)
            cert = best_certificate(system, beta=2.0, delta=0.25)
            if cert is not None and cert.satisfies(2.0, 0.25):
                assert is_separated_exact(system, 2.0, 0.25)


class TestHeuristicCertificates:
    def test_separated_system_certified(self):
        system = separated_system(64)
        cert = best_certificate(system, beta=2.0, delta=0.05)
        assert cert is not None
        assert cert.satisfies(2.0, 0.05)

    def test_checkerboard_not_certified_at_tight_beta(self):
        system = checkerboard_system(64)
        cert = best_certificate(system, beta=1.0, delta=0.05)
        assert cert is None or not cert.satisfies(1.0, 0.05)

    def test_certificate_is_verified(self):
        system = separated_system(49)
        cert = best_certificate(system, beta=2.0, delta=0.1)
        assert cert is not None
        assert verify_certificate(system, cert, beta=2.0, delta=0.1)

    def test_stale_certificate_fails_verification(self):
        system = separated_system(16)
        cert = best_certificate(system, beta=2.0, delta=0.1)
        assert cert is not None
        # Scramble the colors: the old region no longer certifies.
        scrambled = checkerboard_system(16)
        assert not verify_certificate(scrambled, cert, beta=2.0, delta=0.05)

    def test_is_separated_dispatches_by_size(self):
        small = sorted_line(6, [0, 0, 0, 1, 1, 1])
        assert is_separated(small, beta=0.5, delta=0.1)
        large = separated_system(100)
        assert is_separated(large, beta=2.0, delta=0.05)


class TestQualitySummaries:
    def test_quality_keys(self):
        quality = separation_quality(separated_system(36))
        assert set(quality) == {"beta", "impurity", "hetero_density"}
        assert quality["impurity"] <= 0.1

    def test_min_beta_for_delta(self):
        beta, cert = minimum_beta_for_delta(separated_system(64), delta=0.05)
        assert cert is not None
        assert beta < 2.0

    def test_min_beta_unseparable(self):
        beta, cert = minimum_beta_for_delta(checkerboard_system(36), delta=0.01)
        assert beta == math.inf or beta > 2.0


def certifier_corpus():
    """Seeded configurations for the networkx oracle: ``(label, system)``.

    Random blobs at four sizes, plus short-chain endpoints at the four
    Figure 3 corners (expanded/compressed, integrated/separated).
    """
    corpus = [
        (f"blob n={n} seed={seed}", random_blob_system(n, seed=seed))
        for n in (20, 50, 100, 200)
        for seed in range(3)
    ]
    for index, (lam, gamma) in enumerate(FIGURE3_CORNERS):
        system = random_blob_system(100, seed=2018)
        SeparationChain(system, lam=lam, gamma=gamma, seed=300 + index).run(20_000)
        corpus.append((f"chain lam={lam} gamma={gamma}", system))
    return corpus


def networkx_mincut_candidates(system, color):
    """Reference min-cut regions from ``nx.minimum_cut``.

    The configuration graph has unit capacities; each particle of
    ``color`` hangs off a super-source, every other particle off a
    super-sink, with capacity μ.  The region is the source side
    networkx returns, for each μ.
    """
    nx = pytest.importorskip("networkx")
    colors = system.colors
    graph = nx.Graph()
    for (x, y) in colors:
        for dx, dy in NEIGHBOR_OFFSETS:
            nbr = (x + dx, y + dy)
            if nbr in colors and (x, y) < nbr:
                graph.add_edge((x, y), nbr, capacity=1.0)
    source, sink = "__source__", "__sink__"
    candidates = []
    for mu in (0.25, 0.5, 1.0, 2.0, 4.0):
        graph.add_node(source)
        graph.add_node(sink)
        for node, c in colors.items():
            if c == color:
                graph.add_edge(source, node, capacity=mu)
            else:
                graph.add_edge(node, sink, capacity=mu)
        _, (source_side, _) = nx.minimum_cut(graph, source, sink)
        region = {node for node in source_side if node != source}
        if region and len(region) < len(colors):
            candidates.append(region)
        graph.remove_node(source)
        graph.remove_node(sink)
    return candidates


def certificate_answers(system):
    """Every selection the certifier offers, as comparable values."""
    return (
        best_certificate(system),
        best_certificate(system, beta=4.0, delta=0.2),
        best_certificate(system, beta=1.0, delta=0.05),
        minimum_beta_for_delta(system, delta=0.2),
        minimum_beta_for_delta(system, delta=0.05),
    )


class TestNetworkxOracle:
    def test_lattice_max_flow_matches_networkx(self, monkeypatch):
        """Same regions for both colors and all five μ, and the same
        certificates once the networkx regions are substituted."""
        pytest.importorskip("networkx")
        for label, system in certifier_corpus():
            reference = {
                color: networkx_mincut_candidates(system, color)
                for color in range(system.num_colors)
            }
            for color, regions in reference.items():
                assert _mincut_candidates(system, color) == regions, (label, color)
            answers = certificate_answers(system)
            with monkeypatch.context() as patch:
                patch.setattr(
                    separation_metric,
                    "_mincut_candidates",
                    lambda _, color: reference[color],
                )
                assert certificate_answers(system) == answers, label
