"""Classification into the four phases observed in Figure 3.

Section 3.2: "We observe four distinct phases: compressed-separated,
compressed-integrated, expanded-separated, and expanded-integrated."

Compression is measured by the factor :math:`\\alpha = p / p_{min}`;
separation by a verified (β, δ) certificate together with the
heterogeneous-edge density.  Thresholds live in a dataclass so sweeps can
study their sensitivity; the defaults were calibrated on the Figure 2
setting (n = 100, λ = γ = 4 is solidly compressed-separated, λ = γ = 1
solidly expanded-integrated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.compression_metric import alpha_of
from repro.analysis.separation_metric import (
    SeparationCertificate,
    candidate_certificates,
    select_certificate,
)
from repro.system.configuration import ParticleSystem

#: Certificates already found for a configuration by
#: :func:`~repro.analysis.separation_metric.candidate_certificates`;
#: ``None`` makes the function search itself.
Certificates = Optional[Sequence[SeparationCertificate]]


@dataclass(frozen=True)
class PhaseThresholds:
    """Cutoffs for the four-phase classifier.

    ``alpha_max`` — compressed iff the compression factor is below this.
    ``delta`` — color-impurity tolerance used when searching for a
    separation certificate.
    ``beta_max`` — separated iff a certificate with this β exists.
    ``hetero_density_max`` — fallback separation signal: fraction of
    configuration edges that are heterogeneous (a separated system has
    only an O(√n)-edge interface, so this is small).
    """

    alpha_max: float = 3.0
    delta: float = 0.20
    beta_max: float = 4.0
    hetero_density_max: float = 0.22


def is_compressed_phase(
    system: ParticleSystem, thresholds: PhaseThresholds = PhaseThresholds()
) -> bool:
    """Whether the configuration is on the compressed side of the diagram."""
    return alpha_of(system) <= thresholds.alpha_max


def is_separated_phase(
    system: ParticleSystem,
    thresholds: PhaseThresholds = PhaseThresholds(),
    certificates: Certificates = None,
) -> bool:
    """Whether the configuration is on the separated side of the diagram.

    Requires *both* a verified (β, δ) certificate and a low heterogeneous
    edge density, making the classifier robust to certificate-search
    luck on ragged boundaries.
    """
    if system.edge_total == 0:
        return False
    hetero_density = system.hetero_total / system.edge_total
    if hetero_density > thresholds.hetero_density_max:
        return False
    if certificates is None:
        certificates = candidate_certificates(system)
    return any(
        cert.satisfies(thresholds.beta_max, thresholds.delta)
        for cert in certificates
    )


def classify_phase(
    system: ParticleSystem,
    thresholds: PhaseThresholds = PhaseThresholds(),
    certificates: Certificates = None,
) -> str:
    """One of the four Figure 3 phase labels for a configuration."""
    compressed = is_compressed_phase(system, thresholds)
    separated = is_separated_phase(system, thresholds, certificates)
    side = "compressed" if compressed else "expanded"
    mix = "separated" if separated else "integrated"
    return f"{side}-{mix}"


def phase_metrics(
    system: ParticleSystem, certificates: Certificates = None
) -> dict:
    """The raw quantities behind the classification, for reporting."""
    if certificates is None:
        certificates = candidate_certificates(system)
    certificate = select_certificate(certificates)
    return {
        "alpha": alpha_of(system),
        "perimeter": system.perimeter(),
        "hetero_edges": system.hetero_total,
        "hetero_density": (
            system.hetero_total / system.edge_total if system.edge_total else 0.0
        ),
        "best_beta": certificate.beta_achieved if certificate else float("inf"),
        "best_impurity": (
            max(1.0 - certificate.density_inside, certificate.density_outside)
            if certificate
            else 1.0
        ),
    }
