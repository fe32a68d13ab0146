"""Sparse linear solvers.

`SpdSolver` wraps one fixed matrix for repeated solves: it factors the
matrix once (SuperLU) and reuses the factors for every right-hand side.
The eigensolver's shift-invert systems and the simulator's stacked IMEX
probe system diag(M/tau + A, M/tau + d A), which are SPD, go through it.
So do the simulator's nonsymmetric growth and pseudo-transient
continuation matrices: the LU factorization and the residual check need
no symmetry, and the name stays for its SPD callers.  Every solve checks
the achieved residual, so callers never receive a silently bad solve.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class LinearSolveError(RuntimeError):
    """The linear solver failed to reach the requested residual."""


class SpdSolver:
    """Reusable solver for a fixed sparse matrix, SPD or not.

    Factors the matrix once with a sparse LU; every solve is residual
    checked against `rtol`.
    """

    def __init__(self, A: sp.spmatrix, rtol: float = 1e-10):
        self.A = A.tocsr()
        self.rtol = rtol
        try:
            self._factor = spla.splu(self.A.tocsc())
        except RuntimeError as exc:
            raise LinearSolveError(f"factorization failed: {exc}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        x = self._factor.solve(b)
        res = np.linalg.norm(b - self.A @ x) / bnorm
        if not np.isfinite(res) or res > self.rtol:
            raise LinearSolveError(
                f"direct solve residual {res:.3e} exceeds {self.rtol:.3e}"
                " (matrix singular or ill conditioned)")
        return x
