"""Separation certification — lattice max-flow vs the networkx min-cut.

Every Figure 3 phase label rests on a (β, δ)-separation certificate
(Definition 3), and almost all of the certificate search is the s-t
minimum cut of :func:`repro.analysis.separation_metric._mincut_candidates`.
The guard times :func:`best_certificate` over the networkx oracle's
corpus (``tests/test_analysis_separation.py``: random blobs at
n ∈ {20, 50, 100, 200} plus short-chain endpoints at the four Figure 3
corners) twice: with the lattice max-flow, and with the networkx
reference substituted for ``_mincut_candidates``.  Both passes must
return identical certificates.  It writes
``benchmarks/results/BENCH_certify.json`` and asserts the speedup
floor ``REPRO_CERTIFY_SPEEDUP_MIN`` (default 3.0, well below the ~8×
measured on a quiet 2-CPU box).

Run from the repository root (``python -m pytest``) so the oracle's
test module imports as ``tests.test_analysis_separation``.
"""

import os
import sys
import time

import pytest

from conftest import RESULTS_DIR
from repro.analysis import separation_metric
from repro.analysis.separation_metric import best_certificate
from repro.system.initializers import random_blob_system
from repro.util.serialization import save_payload
from tests.test_analysis_separation import (
    certifier_corpus,
    networkx_mincut_candidates,
)

#: Default floor on the networkx / lattice wall-clock ratio (override
#: with the ``REPRO_CERTIFY_SPEEDUP_MIN`` environment variable).
DEFAULT_CERTIFY_SPEEDUP_MIN = 3.0

#: Schema version of the BENCH_certify.json payload body.
BENCH_VERSION = 1


def _timed_certificates(corpus):
    """``best_certificate`` per system, with its wall seconds."""
    rows = []
    for _, system in corpus:
        start = time.perf_counter()
        certificate = best_certificate(system)
        rows.append((certificate, time.perf_counter() - start))
    return rows


def test_best_certificate(benchmark):
    """One certificate search at the Figure 3 size (bench row)."""
    system = random_blob_system(100, seed=2018)
    assert benchmark(best_certificate, system) is not None


def test_certify_speedup_guard_and_baseline(monkeypatch):
    """Lattice max-flow vs networkx; export BENCH_certify.json."""
    networkx = pytest.importorskip("networkx")
    threshold = float(
        os.environ.get("REPRO_CERTIFY_SPEEDUP_MIN", DEFAULT_CERTIFY_SPEEDUP_MIN)
    )
    corpus = certifier_corpus()

    lattice = _timed_certificates(corpus)
    monkeypatch.setattr(
        separation_metric, "_mincut_candidates", networkx_mincut_candidates
    )
    reference = _timed_certificates(corpus)
    monkeypatch.undo()

    for (label, _), ours, theirs in zip(corpus, lattice, reference):
        assert ours[0] == theirs[0], label

    lattice_seconds = sum(seconds for _, seconds in lattice)
    networkx_seconds = sum(seconds for _, seconds in reference)
    speedup = networkx_seconds / lattice_seconds
    rows = [
        {
            "system": label,
            "n": system.n,
            "lattice_seconds": ours[1],
            "networkx_seconds": theirs[1],
        }
        for (label, system), ours, theirs in zip(corpus, lattice, reference)
    ]
    payload = {
        "benchmark": "certify",
        "version": BENCH_VERSION,
        "timing": "best_certificate wall clock per system, one pass each",
        "python": sys.version.split()[0],
        "networkx": networkx.__version__,
        "platform": sys.platform,
        "lattice_seconds": lattice_seconds,
        "networkx_seconds": networkx_seconds,
        "speedup": speedup,
        "speedup_min": threshold,
        "systems": rows,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    save_payload(payload, RESULTS_DIR / "BENCH_certify.json")

    summary = "\n".join(
        [
            f"{row['system']:<28} {row['lattice_seconds'] * 1e3:8.1f} ms "
            f"{row['networkx_seconds'] * 1e3:8.1f} ms"
            for row in rows
        ]
        + [
            f"lattice  {lattice_seconds:8.3f} s",
            f"networkx {networkx_seconds:8.3f} s",
            f"speedup  {speedup:8.2f}x",
        ]
    )
    print(f"\n=== certify ===\n{summary}")

    assert speedup >= threshold, (
        f"certificate search speedup {speedup:.2f}x is below the "
        f"{threshold:.2f}x floor (REPRO_CERTIFY_SPEEDUP_MIN overrides); "
        f"see BENCH_certify.json for the full measurement"
    )


if __name__ == "__main__":
    pytest.main([__file__, "-q", "-s", "--benchmark-disable"])
