"""Smallest eigenpairs of A x = lambda M x via block shift-invert
thick-restart Lanczos.

The operator T = (A + sigma*M)^-1 M is self-adjoint in the M-inner
product.  Its largest eigenvalues 1/(lambda + sigma) belong to the
wanted smallest lambda, and they stand further apart the smaller sigma
is against those lambda (Ericsson & Ruhe, Math. Comp. 35, 1980), so
`default_shift` takes the smallest sigma the solves' residual check
allows.  Block Lanczos on T (Grimes, Lewis & Simon, SIMAX 15, 1994)
grows an M-orthonormal basis V by one block of BLOCK vectors per step:
one multi-RHS solve applies T to the newest block, and block
Gram-Schmidt M-orthogonalizes the result against V.  Each Gram-Schmidt
pass is one pair of matrix products against the basis and a CholQR of
the block (a pivoted Cholesky factorization of its M-Gram matrix, which
also reveals its rank); two passes keep V M-orthonormal to roundoff.
The coefficients fill the symmetric projected matrix B = V^T M T V.
When the basis is full, B is diagonalized, the leading converged Ritz
pairs are locked and the basis is cut to the leading Ritz vectors; with
the next block Q they still satisfy T V = V B + Q^T R E^T, so expansion
carries on from there (thick restart; Zhou & Saad, Numer. Algorithms
47, 2008).

A Krylov space started from BLOCK random vectors holds min(BLOCK, mult)
directions of an eigenspace of multiplicity mult.  So a converged
cluster of Ritz values (agreeing within 10*tol) narrower than BLOCK is
complete.  Only a cluster BLOCK wide can hide further copies: then the
basis is cut to its locked pairs (every other kept vector would lose its
residual term), a fresh random block is added, and this confirmation
sweep repeats until the leading values stop changing.  BLOCK = 6 is one
more than the largest multiplicity an icosphere's icosahedral symmetry
gives (irreps of dimension <= 5), and above the multiplicity 2 of
rectangles and tubes, so those meshes need no sweep.  A wider block
takes fewer steps but solves more columns per converged pair, and no
width is clearly faster: on the benchmark's five spectrum meshes at seed
1, widths 4, 5, 6 and 8 solve 784, 775, 798 and 888 columns, and their
eigensolves take 2.52-2.62, 2.42-2.46, 2.28-2.48 and 2.38-2.41 s in all
(two best-of-3 timings each).

The basis is capped at n.  When the Krylov space is exhausted, or a
block turns rank deficient, only its deficient directions are replaced
by fresh random ones, which take two Gram-Schmidt passes like every
other row and have zero coupling, so the Krylov relation holds for the
rest.

The largest Ritz values theta of T map to the smallest eigenvalues via
lambda = 1/theta - sigma.  The basis lives in the rows of preallocated
(m, n) buffers, so each block update is a matrix product.

Why not scipy's?  ARPACK `eigsh`, shift-inverted by the same factor,
was faster on 4 of the benchmark's 5 spectrum meshes (rect200x100: 0.25
against 0.49 s; icosphere(5): 0.75 against 0.69 s) but missed copies of
multiple eigenvalues in 85, 53 and 10 of 135 (count, seed) runs on
icosphere(3), ball(1) and disk(2).  LOBPCG preconditioned by it was
1.2-4x slower (tube(3): 0.91 against 0.23 s).  Timings here are best of
3 (LOBPCG: single runs), one BLAS thread, shared 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .solvers import LinearSolveError, SpdSolver

DENSE_ORDER_LIMIT = 2000
BLOCK = 6
# a block row whose CholQR pivot is below RANK_TOL of its norm is rank
# deficient; the Gram matrix resolves pivots only down to about sqrt(eps)
RANK_TOL = 1e-7
MAX_RESTARTS = 300    # thick restarts before the solve gives up


class EigensolverError(RuntimeError):
    """The Krylov space stagnated or the restart budget ran out; the
    message names how many of the requested pairs converged."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending M-orthonormal eigenpairs with residual norms."""
    eigenvalues: np.ndarray   # (k,) ascending, >= 0
    vectors: np.ndarray       # (n, k), M-orthonormal columns
    residuals: np.ndarray     # (k,) relative residuals ||Av - lam Mv|| / ||v||
    tolerance: float

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _gram_schmidt(X: np.ndarray, V: np.ndarray, W: np.ndarray,
                  M: sp.spmatrix):
    """One block Gram-Schmidt pass on the rows of X: X = H^T V + R^T Q.

    The rows of X are M-projected off the M-orthonormal rows of V
    (W = V M), then split by CholQR into M-orthonormal rows Q.  The
    Cholesky factorization pivots, and stops at the first pivot below
    RANK_TOL of its row's norm: Q spans only the rows above that rank.
    Returns H, Q, M Q and R.
    """
    H = W @ X.T
    X = X - H.T @ V
    MX = (M @ X.T).T
    G = X @ MX.T
    s = 1.0 / np.sqrt((H * H).sum(axis=0) + G.diagonal())
    G = G * s[:, None] * s
    U, piv, rank, _ = scipy.linalg.lapack.dpstrf(G, tol=RANK_TOL ** 2)
    # dpstrf tests tol from its second pivot on, and always keeps the
    # first (the largest diagonal entry), even when it is rounding noise
    if np.max(G.diagonal(), initial=0.0) <= RANK_TOL ** 2:
        rank = 0
    U = np.triu(U[:rank])
    perm, kept = piv - 1, piv[:rank] - 1
    S = np.linalg.inv(U[:, :rank]).T
    R = np.empty_like(U)
    R[:, perm] = U
    return (H, S @ (X[kept] * s[kept, None]), S @ (MX[kept] * s[kept, None]),
            R / s)


def _next_block(X: np.ndarray, V: np.ndarray, W: np.ndarray,
                M: sp.spmatrix, rng: np.random.Generator):
    """M-orthonormal rows Q with X = H^T V + R^T Q, by two Gram-Schmidt
    passes; returns H, Q, M Q and R.

    Rank-deficient directions of X are replaced by fresh random ones with
    zero rows in R, as many as fit beside V in the n-dimensional space;
    so Q has fewer rows than X only when that space is exhausted.
    """
    H1, Q1, _, R1 = _gram_schmidt(X, V, W, M)
    n = V.shape[1]
    fresh = max(min(len(X), n - len(V)) - len(Q1), 0)
    if fresh:
        Q1 = np.vstack((Q1, rng.standard_normal((fresh, n))))
        R1 = np.vstack((R1, np.zeros((fresh, len(X)))))
        # the fresh rows take two passes, as X did
        H0, Q1, _, R0 = _gram_schmidt(Q1, V, W, M)
        H1, R1 = H1 + H0 @ R1, R0 @ R1
    H2, Q, MQ, R2 = _gram_schmidt(Q1, V, W, M)
    if len(Q) < len(Q1):
        raise EigensolverError("block orthonormalization broke down")
    return H1 + H2 @ R1, Q, MQ, R2 @ R1


def _random_block(V: np.ndarray, W: np.ndarray, M: sp.spmatrix,
                  rng: np.random.Generator):
    """Random M-orthonormal rows, M-orthogonal to the rows of V; returns
    (Q, M Q)."""
    return _next_block(rng.standard_normal((BLOCK, V.shape[1])), V, W, M,
                       rng)[1:3]


def _widest_cluster(theta: np.ndarray, rtol: float) -> int:
    """Length of the longest run of consecutive values within rtol."""
    breaks = np.flatnonzero(~np.isclose(theta[1:], theta[:-1], rtol=rtol,
                                        atol=0.0)) + 1
    return int(np.diff(np.concatenate(([0], breaks, [len(theta)]))).max())


def default_shift(A: sp.spmatrix, M: sp.spmatrix,
                  tol: float = 1e-9) -> float:
    """Shift sigma of the solves with A + sigma*M at eigensolver tolerance
    `tol`: the smallest that keeps them a margin inside their residual
    check rtol = tol/100.

    A solve's worst column residual, reached in the first blocks, is
    (0.1-1.1) eps tr(A)/tr(M) / sigma on intervals, rectangles, disks,
    balls, open and capped tubes and icospheres.  So sigma =
    c (eps / rtol) tr(A)/tr(M) with c = 1e-15/eps (about 4.5) holds it
    below a quarter of rtol: sigma is 1e-4 tr(A)/tr(M) at the default tol
    1e-9 and 1e-3 tr(A)/tr(M) at tol 1e-10.  tr(A)/tr(M) grows like
    1/h^2, and so does sigma, which fine meshes pay in Lanczos steps
    once it passes the wanted eigenvalues; below tol 1e-11 no shift serves
    (config.MIN_EIGENSOLVER_TOL).
    """
    return 1e-3 * (1e-10 / tol) * (A.diagonal().sum() / M.diagonal().sum())


def smallest_eigenpairs(A: sp.spmatrix, M: sp.spmatrix, count: int,
                        tol: float = 1e-9, seed: int = 0) -> Spectrum:
    """The `count` smallest eigenpairs of A x = lambda M x.

    Deterministic for a fixed seed.  Eigenvectors are M-orthonormal with
    a sign convention (largest-magnitude entry positive).
    """
    n = A.shape[0]
    if count < 1 or count >= n:
        raise ValueError(f"count must be in [1, {n - 1}]")
    sigma = default_shift(A, M, tol)
    M = M.tocsr()
    solver = SpdSolver((A + sigma * M).tocsr(), rtol=tol / 100.0)
    p = count + min(count, 10)        # Ritz vectors kept by a plain restart
    m = min(max(2 * count + 10, p + 3 * BLOCK), n)  # >= 3 blocks per cycle
    rng = np.random.default_rng(seed)
    V = np.empty((m, n))              # rows: M-orthonormal basis
    W = np.empty((m, n))              # rows: M @ V[i]
    B = np.empty((m, m))              # projected matrix, leading j x j used
    Q, MQ = _random_block(V[:0], W[:0], M, rng)  # next block to add
    j = 0
    stalled = best = n_locked = 0
    reference: np.ndarray | None = None
    for _ in range(MAX_RESTARTS):
        while len(Q) and j + len(Q) <= m:
            i, j = j, j + len(Q)
            V[i:j], W[i:j] = Q, MQ
            H, Q, MQ, R = _next_block(solver.solve(MQ.T).T, V[:j], W[:j],
                                      M, rng)
            H[i:] = (H[i:] + H[i:].T) / 2.0
            B[:j, i:j] = H
            B[i:j, :j] = H.T

        theta, Y = scipy.linalg.eigh(B[:j, :j])
        theta, Y = theta[::-1], Y[:, ::-1]  # largest theta = smallest lambda
        tau = np.linalg.norm(R @ Y[i:j], axis=0)  # block i:j couples to Q
        converged = tau <= tol * np.maximum(np.abs(theta), 1e-300)
        n_locked = int(np.cumprod(converged).sum())
        if n_locked >= count:
            # only a cluster as wide as the block can hide more copies:
            # re-seed the locked pairs with a fresh block until the
            # leading values stop changing
            if j == n or _widest_cluster(theta[:count], 10.0 * tol) < BLOCK \
                    or (reference is not None and np.allclose(
                        theta[:count], reference, rtol=10.0 * tol, atol=0.0)):
                break
            reference = theta[:count]
            k = min(n_locked, m - BLOCK)
        else:
            k = min(p, m - len(Q))
            if n_locked > best:
                best = n_locked
                stalled = 0
            else:
                stalled += 1
            if stalled >= 60:
                raise EigensolverError(
                    f"Krylov space stagnated with {n_locked} of {count} "
                    "pairs converged")
        V[:k] = Y[:, :k].T @ V[:j]
        W[:k] = Y[:, :k].T @ W[:j]
        B[:k, :k] = np.diag(theta[:k])
        j = k
        if n_locked >= count:
            Q, MQ = _random_block(V[:j], W[:j], M, rng)
    else:
        raise EigensolverError(
            f"restart budget exhausted with {n_locked} of {count} pairs "
            "converged")

    lam = 1.0 / theta[:count] - sigma
    order = np.argsort(lam)
    lam = lam[order]
    X = V[:j].T @ Y[:, order]
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
