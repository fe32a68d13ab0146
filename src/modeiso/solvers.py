"""Sparse symmetric positive definite linear solvers.

`SpdSolver` wraps one fixed matrix for repeated solves.  Up to
DIRECT_ORDER_THRESHOLD unknowns it factors the matrix once (SuperLU) and
reuses the factors; above that it runs a hand-rolled conjugate gradient
with a Jacobi preconditioner, warm-started from the caller's guess.  The
eigensolver's shift-invert systems and the simulator's IMEX diffusion
systems both go through it.  Every solve checks the achieved residual,
so callers never receive a silently bad solve.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DIRECT_ORDER_THRESHOLD = 20000


class LinearSolveError(RuntimeError):
    """The linear solver failed to reach the requested residual."""


def pcg(A: sp.spmatrix, b: np.ndarray, rtol: float = 1e-10,
        x0: np.ndarray | None = None, maxiter: int | None = None,
        diag: np.ndarray | None = None) -> np.ndarray:
    """Conjugate gradient with diagonal preconditioning.

    Stops when ||b - A x||_2 <= rtol * ||b||_2.
    """
    n = b.shape[0]
    if maxiter is None:
        maxiter = 10 * n + 100
    if diag is None:
        diag = A.diagonal()
    if np.any(diag <= 0):
        raise LinearSolveError("matrix diagonal not positive; not SPD")
    inv_diag = 1.0 / diag

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    x = np.zeros(n) if x0 is None else x0.astype(float).copy()
    r = b - A @ x
    target = rtol * bnorm
    if np.linalg.norm(r) <= target:
        return x
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for _ in range(maxiter):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise LinearSolveError("non-positive curvature; matrix not SPD")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= target:
            return x
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise LinearSolveError(
        f"PCG did not converge in {maxiter} iterations "
        f"(residual {np.linalg.norm(r) / bnorm:.3e}, target {rtol:.3e})")


class SpdSolver:
    """Reusable solver for a fixed SPD sparse matrix.

    Uses a direct sparse factorization below DIRECT_ORDER_THRESHOLD and
    preconditioned conjugate gradient above it.  Every solve is residual
    checked against `rtol`.
    """

    def __init__(self, A: sp.spmatrix, rtol: float = 1e-10,
                 method: str = "auto"):
        if method not in ("auto", "direct", "pcg"):
            raise ValueError(f"unknown method {method!r}")
        self.A = A.tocsr()
        self.rtol = rtol
        n = A.shape[0]
        if method == "direct" or (method == "auto"
                                  and n <= DIRECT_ORDER_THRESHOLD):
            self.method = "direct"
            try:
                self._factor = spla.splu(self.A.tocsc())
            except RuntimeError as exc:
                raise LinearSolveError(f"factorization failed: {exc}")
        else:
            self.method = "pcg"
            self._diag = self.A.diagonal()

    def solve(self, b: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        if self.method == "direct":
            x = self._factor.solve(b)
            res = np.linalg.norm(b - self.A @ x) / bnorm
            if not np.isfinite(res) or res > self.rtol:
                raise LinearSolveError(
                    f"direct solve residual {res:.3e} exceeds {self.rtol:.3e}"
                    " (matrix singular or ill conditioned)")
            return x
        return pcg(self.A, b, rtol=self.rtol, x0=x0, diag=self._diag)
