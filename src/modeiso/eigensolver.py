"""Smallest eigenpairs of A x = lambda M x via shift-invert thick-restart
Lanczos.

The operator T = (A + sigma*M)^-1 M is self-adjoint in the M-inner
product, so Lanczos on T builds an M-orthonormal basis V and a symmetric
projected matrix B = V^T M T V.  Full reorthogonalization (two
Gram-Schmidt passes) keeps V M-orthonormal to roundoff.  When the basis
holds m vectors, B is diagonalized, the leading converged Ritz pairs are
locked and the basis is cut to the leading Ritz vectors; with the last
Lanczos vector they still satisfy T V = V B + beta v e^T, so expansion
carries on from there (thick restart; Wu & Simon, SIMAX 22, 2000).

A single starting vector sees one direction per degenerate eigenspace.
So once the wanted pairs have converged, the basis is cut to its locked
pairs only (every other kept vector would lose its residual term) and a
fresh random direction is injected.  The solve ends when the leading
values agree over two such confirmation sweeps.

The largest Ritz values theta of T map to the smallest eigenvalues via
lambda = 1/theta - sigma.  The basis lives in the rows of preallocated
(m, n) buffers, so adding a vector copies one vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .solvers import LinearSolveError, SpdSolver

DENSE_ORDER_LIMIT = 2000


class EigensolverError(RuntimeError):
    def __init__(self, message: str, n_converged: int = 0):
        super().__init__(message)
        self.n_converged = n_converged


@dataclass(frozen=True)
class Spectrum:
    """Ascending M-orthonormal eigenpairs with residual norms."""
    eigenvalues: np.ndarray   # (k,) ascending, >= 0
    vectors: np.ndarray       # (n, k), M-orthonormal columns
    residuals: np.ndarray     # (k,) relative residuals ||Av - lam Mv|| / ||v||
    tolerance: float

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _fresh_direction(V: np.ndarray, W: np.ndarray, M: sp.spmatrix,
                     rng: np.random.Generator):
    """Random M-unit vector v, M-orthogonal to the rows of V (W = V M);
    returns (v, M v)."""
    for _ in range(20):
        v = rng.standard_normal(V.shape[1])
        for _ in range(2):
            v -= (W @ v) @ V
        w = M @ v
        norm = np.sqrt(max(v @ w, 0.0))
        if norm > 1e-8:
            return v / norm, w / norm
    raise EigensolverError("could not generate a basis direction; "
                           "Krylov space exhausted")


def default_shift(A: sp.spmatrix, M: sp.spmatrix) -> float:
    """Small positive shift making A + sigma*M safely definite despite the
    Neumann kernel."""
    return 1e-3 * (A.diagonal().sum() / M.diagonal().sum())


def smallest_eigenpairs(A: sp.spmatrix, M: sp.spmatrix, count: int,
                        tol: float = 1e-9, seed: int = 0,
                        max_restarts: int = 300) -> Spectrum:
    """The `count` smallest eigenpairs of A x = lambda M x.

    Deterministic for a fixed seed.  Eigenvectors are M-orthonormal with
    a sign convention (largest-magnitude entry positive).
    """
    n = A.shape[0]
    if count < 1 or count >= n:
        raise ValueError(f"count must be in [1, {n - 1}]")
    sigma = default_shift(A, M)
    M = M.tocsr()
    solver = SpdSolver((A + sigma * M).tocsr(), rtol=tol / 100.0)
    m = min(max(2 * count + 10, 20), n)
    p = count + min(count, 10)        # Ritz vectors kept by a plain restart
    rng = np.random.default_rng(seed)
    V = np.empty((m, n))              # rows: M-orthonormal basis
    W = np.empty((m, n))              # rows: M @ V[i]
    B = np.empty((m, m))              # projected matrix, leading j x j used
    v = rng.standard_normal(n)
    v /= np.sqrt(v @ (M @ v))
    w = M @ v
    j = 0
    stalled = best = confirmations = n_locked = 0
    reference: np.ndarray | None = None
    for _ in range(max_restarts):
        while j < m:
            V[j], W[j] = v, w
            j += 1
            x = solver.solve(w)
            h = W[:j] @ x
            x -= h @ V[:j]
            h2 = W[:j] @ x
            x -= h2 @ V[:j]
            h += h2
            B[:j, j - 1] = B[j - 1, :j] = h
            w = M @ x
            beta = np.sqrt(max(x @ w, 0.0))
            if beta <= 1e-13 * max(np.abs(B[:j, :j]).max(), 1e-30) or j == n:
                beta = 0.0  # invariant subspace: go on from a fresh vector
                if j < m:
                    v, w = _fresh_direction(V[:j], W[:j], M, rng)
            else:
                v, w = x / beta, w / beta

        theta, Y = scipy.linalg.eigh(B[:j, :j])
        theta, Y = theta[::-1], Y[:, ::-1]  # largest theta = smallest lambda
        tau = np.abs(beta * Y[j - 1])
        converged = tau <= tol * np.maximum(np.abs(theta), 1e-300)
        n_locked = int(np.cumprod(converged).sum())
        k = min(n_locked if n_locked >= count else p, j - 1)
        V[:k] = Y[:, :k].T @ V[:j]
        W[:k] = Y[:, :k].T @ W[:j]
        B[:k, :k] = np.diag(theta[:k])
        j = k
        if n_locked >= count:
            # keep the locked pairs only and re-seed with a fresh random
            # direction until the leading values stop changing, so no
            # multiplicity is missed
            if reference is not None and np.allclose(
                    theta[:count], reference, rtol=10.0 * tol, atol=0.0):
                confirmations += 1
            else:
                confirmations = 0
            reference = theta[:count]
            if confirmations >= 2:
                break
            v, w = _fresh_direction(V[:j], W[:j], M, rng)
            continue
        reference = None
        confirmations = 0
        if n_locked > best:
            best = n_locked
            stalled = 0
        else:
            stalled += 1
        if stalled >= 60:
            raise EigensolverError(
                f"Krylov space stagnated with {n_locked} of {count} pairs "
                "converged", n_converged=n_locked)
    else:
        raise EigensolverError(
            f"restart budget exhausted with {n_locked} of {count} pairs "
            "converged", n_converged=n_locked)

    lam = 1.0 / theta[:count] - sigma
    order = np.argsort(lam)
    lam = lam[order]
    X = V[order].T.copy()
    _fix_signs(X)
    return Spectrum(eigenvalues=np.maximum(lam, 0.0), vectors=X,
                    residuals=_relative_residuals(A, M, lam, X),
                    tolerance=tol)


def _fix_signs(X: np.ndarray) -> None:
    """Flip columns in place so each one's largest-magnitude entry is
    positive (a deterministic sign convention)."""
    rows = np.argmax(np.abs(X), axis=0)
    X *= np.where(X[rows, np.arange(X.shape[1])] < 0, -1.0, 1.0)


def _relative_residuals(A, M, lam: np.ndarray, X: np.ndarray) -> np.ndarray:
    """||A x - lam M x|| / ||x|| for each column x of X."""
    return (np.linalg.norm(A @ X - (M @ X) * lam, axis=0)
            / np.linalg.norm(X, axis=0))


def dense_generalized_eig(A: sp.spmatrix, M: sp.spmatrix) -> Spectrum:
    """Full spectrum by dense reduction; test oracle for small problems."""
    n = A.shape[0]
    if n > DENSE_ORDER_LIMIT:
        raise ValueError(f"dense oracle limited to order {DENSE_ORDER_LIMIT}")
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
    try:
        lam, X = scipy.linalg.eigh(Ad, Md)
    except scipy.linalg.LinAlgError as exc:
        raise LinearSolveError(f"mass matrix not positive definite: {exc}")
    _fix_signs(X)
    return Spectrum(eigenvalues=np.maximum(lam, 0.0), vectors=X,
                    residuals=_relative_residuals(sp.csr_matrix(A),
                                                   sp.csr_matrix(M), lam, X),
                    tolerance=0.0)
