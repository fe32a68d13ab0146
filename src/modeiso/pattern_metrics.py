"""Quantitative comparison of a converged pattern with its target eigenspace.

The target is the set of eigenpairs the isolation excites.  The centered,
M-normalized pattern is M-projected once onto the span of their
eigenvectors, and the correlation is the M-norm of that projection.
This makes the comparison invariant to scale and sign, and to any linear
combination within the target: when several eigenvalues fall in the
admissible window, the grown pattern can mix their eigenfunctions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .eigensolver import Spectrum
from .fem import m_inner, m_norm

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


def match_pattern(pattern: np.ndarray, spectrum: Spectrum, M: sp.spmatrix,
                  target: Sequence[int]) -> MatchReport:
    """Correlation of a pattern with the span of the target eigenvectors;
    `best_index` is the target member with the largest |coefficient|."""
    p = np.asarray(pattern, dtype=float)
    if p.shape[0] != spectrum.vectors.shape[0]:
        raise ValueError("pattern and spectrum live on different meshes")
    target = tuple(int(i) for i in target)
    if not target:
        raise ValueError("empty target eigenspace")
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

    basis = spectrum.vectors[:, list(target)]          # M-orthonormal columns
    coeffs = basis.T @ (M @ centered)
    projection = basis @ coeffs
    residual = m_norm(M, centered - projection)
    return MatchReport(best_index=target[int(np.argmax(np.abs(coeffs)))],
                       correlation=min(m_norm(M, projection), 1.0),
                       projection_residual=min(residual, 1.0),
                       eigenspace=target)
