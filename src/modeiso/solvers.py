"""Sparse linear solvers.

`SpdSolver` wraps one fixed matrix for repeated solves: it factors the
matrix once (SuperLU) and reuses the factors for every right-hand side,
a vector or an (n, k) block of columns solved in one call.  The
eigensolver's shift-invert systems (one block per Lanczos step), which
are SPD, go through it.  So do the simulator's nonsymmetric growth and
pseudo-transient continuation matrices: the LU factorization and the
residual check need no symmetry, and the name stays for its SPD caller.
Every column's residual is checked, so callers never receive a silently
bad solve.

Every factorization is ordered the same way: the matrix is permuted
symmetrically by reverse Cuthill-McKee (Cuthill & McKee, 1969) on the
pattern of A + A^T, and SuperLU orders the permuted columns by minimum
degree on A^T + A (`MMD_AT_PLUS_A`).  On P1 meshes of 10k-20k vertices
this cuts the fill of SuperLU's default COLAMD ordering by 37-45% (0.85 M
against 1.35 M nonzeros in L + U on icosphere(5), 1.23 M against 2.22 M
on a 140 x 140 rectangle) and factors in 60-70% of its time.  The RCM
preorder matters: on icosphere(5)'s own vertex numbering the same
minimum-degree factorization takes 1.6-1.9 s, against about 70 ms after
RCM.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee


class LinearSolveError(RuntimeError):
    """The linear solver failed to reach the requested residual."""


class SpdSolver:
    """Reusable solver for a fixed sparse matrix, SPD or not.

    Factors the matrix once with a sparse LU, symmetrically permuted by
    reverse Cuthill-McKee and column ordered by minimum degree on A^T + A;
    every solve is residual checked against `rtol` on the permuted A.
    """

    def __init__(self, A: sp.spmatrix, rtol: float = 1e-10):
        A = A.tocsr()
        self.rtol = rtol
        self._perm = reverse_cuthill_mckee(A, symmetric_mode=False)
        self._unperm = np.argsort(self._perm)
        self._Ap = A[self._perm][:, self._perm]
        try:
            self._factor = spla.splu(self._Ap.tocsc(),
                                     permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise LinearSolveError(f"factorization failed: {exc}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b, for a vector b or each column of an (n, k) b.

        A zero column of b gives a zero column of x; every other column
        must reach a relative residual of `rtol`.
        """
        bp = b[self._perm]
        bnorm = np.linalg.norm(bp, axis=0)
        y = self._factor.solve(bp)
        if not np.all(bnorm > 0.0):
            y = np.where(bnorm > 0.0, y, 0.0)
        res = (np.linalg.norm(bp - self._Ap @ y, axis=0)
               / np.where(bnorm > 0.0, bnorm, 1.0))
        worst = np.max(res, initial=0.0)
        if not np.isfinite(worst) or worst > self.rtol:
            raise LinearSolveError(
                f"direct solve residual {worst:.3e} exceeds {self.rtol:.3e}"
                " (matrix singular or ill conditioned)")
        return y[self._unperm]
