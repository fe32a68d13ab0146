"""Quantitative comparison of converged patterns with eigenfunctions.

Eigenvalues are grouped into near-degenerate clusters and the centered,
M-normalized pattern is projected onto each cluster's eigenspace; the
best cluster is the one capturing the most of the pattern's energy.
This makes the comparison invariant to scale, sign and rotations within
a degenerate eigenspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .eigensolver import Spectrum
from .fem import m_inner, m_norm

DEFAULT_CLUSTER_GAP = 1e-3
UNIFORM_TOL = 1e-12


@dataclass(frozen=True)
class MatchReport:
    best_index: int
    correlation: float
    projection_residual: float
    eigenspace: tuple[int, ...]
    uniform: bool = False

    def as_dict(self) -> dict:
        return {"best_index": self.best_index,
                "correlation": self.correlation,
                "projection_residual": self.projection_residual,
                "eigenspace": list(self.eigenspace),
                "uniform": self.uniform}


def cluster_spectrum(eigenvalues: np.ndarray,
                     gap: float = DEFAULT_CLUSTER_GAP) -> list[list[int]]:
    """Group ascending eigenvalues into clusters by relative gap."""
    clusters: list[list[int]] = []
    for i, lam in enumerate(eigenvalues):
        if clusters:
            prev = eigenvalues[clusters[-1][-1]]
            scale = max(abs(lam), abs(prev), 1e-30)
            if abs(lam - prev) <= gap * scale:
                clusters[-1].append(i)
                continue
        clusters.append([i])
    return clusters


def match_pattern(pattern: np.ndarray, spectrum: Spectrum, M: sp.spmatrix,
                  cluster_gap: float = DEFAULT_CLUSTER_GAP) -> MatchReport:
    """Best eigenspace cluster for a pattern, by M-orthogonal projection."""
    p = np.asarray(pattern, dtype=float)
    if p.shape[0] != spectrum.vectors.shape[0]:
        raise ValueError("pattern and spectrum live on different meshes")
    ones = np.ones_like(p)
    mean = m_inner(M, ones, p) / m_inner(M, ones, ones)
    centered = p - mean
    norm = m_norm(M, centered)
    scale = max(m_norm(M, p), 1.0)
    if norm <= UNIFORM_TOL * scale:
        return MatchReport(best_index=-1, correlation=0.0,
                           projection_residual=1.0, eigenspace=(),
                           uniform=True)
    centered /= norm

    clusters = cluster_spectrum(spectrum.eigenvalues, cluster_gap)
    best: tuple[float, list[int], np.ndarray] | None = None
    for cluster in clusters:
        basis = spectrum.vectors[:, cluster]           # M-orthonormal columns
        coeffs = basis.T @ (M @ centered)
        projection = basis @ coeffs
        corr = min(m_norm(M, projection), 1.0)
        if best is None or corr > best[0]:
            best = (corr, cluster, projection)
    corr, cluster, projection = best
    residual = m_norm(M, centered - projection)
    best_coeff_pos = int(np.argmax(np.abs(
        spectrum.vectors[:, cluster].T @ (M @ centered))))
    return MatchReport(best_index=cluster[best_coeff_pos],
                       correlation=corr,
                       projection_residual=min(residual, 1.0),
                       eigenspace=tuple(cluster))

