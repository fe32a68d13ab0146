"""Smallest eigenpairs of A x = lambda M x via shift-invert Krylov-Schur.

The operator T = (A + sigma*M)^-1 M is self-adjoint in the M-inner
product, so the projected matrix is symmetric and the Krylov-Schur
restart reduces to thick-restart Lanczos: diagonalize the projected
matrix, keep the leading Ritz vectors plus the continuation vector, and
expand again.  Full reorthogonalization (two Gram-Schmidt passes) keeps
the basis M-orthonormal to roundoff.

The largest Ritz values theta of T map to the smallest eigenvalues via
lambda = 1/theta - sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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


@dataclass
class KrylovState:
    """Thick-restart Lanczos state in the M-inner product."""
    M: sp.spmatrix | None     # None means the Euclidean inner product
    V: np.ndarray             # (n, j) basis, M-orthonormal columns
    W: np.ndarray             # M @ V cache
    B: np.ndarray             # (j, j) symmetric projected matrix
    coupling: np.ndarray      # (j,) coupling of columns to v_next
    v_next: np.ndarray        # continuation vector, M-normalized
    w_next: np.ndarray        # M @ v_next
    n_converged: int = 0
    count: int = 1            # wanted pairs (used by restart truncation)
    tol: float = 1e-9
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))
    ritz_values: np.ndarray = field(
        default_factory=lambda: np.empty(0))
    ritz_residuals: np.ndarray = field(
        default_factory=lambda: np.empty(0))


def _apply_m(M: sp.spmatrix | None, x: np.ndarray) -> np.ndarray:
    return x if M is None else M @ x


def initial_state(n: int, M: sp.spmatrix | None, count: int, tol: float,
                  seed: int) -> KrylovState:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    w = _apply_m(M, v)
    v /= np.sqrt(v @ w)
    return KrylovState(M=M, V=np.empty((n, 0)), W=np.empty((n, 0)),
                       B=np.empty((0, 0)), coupling=np.empty(0),
                       v_next=v, w_next=_apply_m(M, v),
                       count=count, tol=tol, rng=rng)


def _fresh_direction(state: KrylovState) -> tuple[np.ndarray, np.ndarray]:
    """Random vector M-orthogonalized against the current basis."""
    n = state.v_next.shape[0]
    for _ in range(20):
        v = state.rng.standard_normal(n)
        for _ in range(2):
            v -= state.V @ (state.W.T @ v)
        w = _apply_m(state.M, v)
        norm = np.sqrt(max(v @ w, 0.0))
        if norm > 1e-8:
            return v / norm, w / norm
    raise EigensolverError("could not generate a basis direction; "
                           "Krylov space exhausted",
                           n_converged=state.n_converged)


def krylov_schur_iterate(state: KrylovState,
                         operator: Callable[[np.ndarray], np.ndarray],
                         m: int) -> KrylovState:
    """One expand/restart cycle: grow the basis to m vectors, diagonalize
    the projected matrix, lock converged Ritz pairs (largest theta first,
    i.e. ascending lambda) and truncate."""
    n = state.v_next.shape[0]
    m = min(m, n)
    V, W, B, coupling = state.V, state.W, state.B, state.coupling
    v_next, w_next = state.v_next, state.w_next
    beta = 0.0

    while V.shape[1] < m:
        j = V.shape[1]
        # admit the continuation vector as basis column j
        V = np.column_stack([V, v_next])
        W = np.column_stack([W, w_next])
        B_new = np.zeros((j + 1, j + 1))
        B_new[:j, :j] = B
        B_new[:j, j] = coupling
        B_new[j, :j] = coupling
        B = B_new

        w = operator(v_next)
        # full reorthogonalization, two passes
        h = W.T @ w
        w = w - V @ h
        h2 = W.T @ w
        w = w - V @ h2
        h += h2
        B[:, j] = h
        B[j, :] = h
        B[j, j] = h[j]

        mw = _apply_m(state.M, w)
        beta = float(np.sqrt(max(w @ mw, 0.0)))
        scale = max(np.abs(B).max(), 1e-30)
        if beta <= 1e-13 * scale or V.shape[1] == n:
            # invariant subspace (or full space): restart from fresh vector
            coupling = np.zeros(j + 1)
            beta = 0.0
            if V.shape[1] == n:
                v_next = np.zeros(n)
                w_next = np.zeros(n)
                break
            v_next, w_next = _fresh_direction(
                KrylovState(M=state.M, V=V, W=W, B=B, coupling=coupling,
                            v_next=v_next, w_next=w_next, rng=state.rng))
        else:
            v_next = w / beta
            w_next = mw / beta
            coupling = np.zeros(j + 1)
            coupling[j] = beta

    theta, Y = scipy.linalg.eigh((B + B.T) / 2.0)
    order = np.argsort(theta)[::-1]          # largest theta = smallest lambda
    theta = theta[order]
    Y = Y[:, order]
    tau = np.abs(coupling @ Y)

    converged = tau <= state.tol * np.maximum(np.abs(theta), 1e-300)
    n_locked = 0
    while n_locked < len(theta) and converged[n_locked]:
        n_locked += 1

    p = state.count + min(state.count, 10)
    p = min(max(p, n_locked + 1), max(B.shape[0] - 1, 1))
    keep = slice(0, p)
    V_k = V @ Y[:, keep]
    W_k = W @ Y[:, keep]
    B_k = np.diag(theta[keep])
    coupling_k = coupling @ Y[:, keep]

    return KrylovState(M=state.M, V=V_k, W=W_k, B=B_k, coupling=coupling_k,
                       v_next=v_next, w_next=w_next, n_converged=n_locked,
                       count=state.count, tol=state.tol, rng=state.rng,
                       ritz_values=theta.copy(),
                       ritz_residuals=tau.copy())


class ShiftInvertOperator:
    """Applies T = (A + sigma*M)^-1 M with a residual-checked inner solve."""

    def __init__(self, A: sp.spmatrix, M: sp.spmatrix, sigma: float,
                 inner_rtol: float):
        self.M = M.tocsr()
        self.sigma = sigma
        self.solver = SpdSolver((A + sigma * M).tocsr(), rtol=inner_rtol)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.solver.solve(self.M @ v)


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
    operator = ShiftInvertOperator(A, M, sigma, inner_rtol=tol / 100.0)
    m = max(2 * count + 10, 20)
    state = initial_state(n, M, count, tol, seed)

    stalled = 0
    best = 0
    confirmations = 0
    reference: np.ndarray | None = None
    for _ in range(max_restarts):
        state = krylov_schur_iterate(state, operator, m)
        if state.n_converged >= count:
            # a single starting vector sees one direction per degenerate
            # eigenspace; re-seed with fresh random directions until the
            # leading values stop changing, so no multiplicity is missed
            theta_now = np.diag(state.B)[:count].copy()
            if reference is not None and np.allclose(
                    theta_now, reference, rtol=10.0 * state.tol, atol=0.0):
                confirmations += 1
            else:
                confirmations = 0
            reference = theta_now
            if confirmations >= 2:
                break
            try:
                v, w = _fresh_direction(state)
            except EigensolverError:
                break  # basis spans the whole space: nothing left to find
            state.v_next, state.w_next = v, w
            state.coupling = np.zeros_like(state.coupling)
            continue
        reference = None
        confirmations = 0
        if state.n_converged > best:
            best = state.n_converged
            stalled = 0
        else:
            stalled += 1
        if stalled >= 60:
            raise EigensolverError(
                f"Krylov space stagnated with {state.n_converged} of "
                f"{count} pairs converged", n_converged=state.n_converged)
    else:
        raise EigensolverError(
            f"restart budget exhausted with {state.n_converged} of "
            f"{count} pairs converged", n_converged=state.n_converged)

    theta = np.diag(state.B)[:count]
    X = state.V[:, :count].copy()
    lam = 1.0 / theta - sigma
    order = np.argsort(lam)
    lam = lam[order]
    X = X[:, order]
    # deterministic sign convention
    for i in range(count):
        k = int(np.argmax(np.abs(X[:, i])))
        if X[k, i] < 0:
            X[:, i] = -X[:, i]
    residuals = _relative_residuals(A, M, lam, X)
    return Spectrum(eigenvalues=np.maximum(lam, 0.0), vectors=X,
                    residuals=residuals, tolerance=tol)


def _relative_residuals(A, M, lam, X) -> np.ndarray:
    res = np.empty(len(lam))
    for i, l in enumerate(lam):
        x = X[:, i]
        res[i] = np.linalg.norm(A @ x - l * (M @ x)) / np.linalg.norm(x)
    return res


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
    for i in range(n):
        k = int(np.argmax(np.abs(X[:, i])))
        if X[k, i] < 0:
            X[:, i] = -X[:, i]
    residuals = _relative_residuals(sp.csr_matrix(Ad), sp.csr_matrix(Md),
                                    lam, X)
    return Spectrum(eigenvalues=np.maximum(lam, 0.0), vectors=X,
                    residuals=residuals, tolerance=0.0)
