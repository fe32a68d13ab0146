import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import modeiso as mi
from modeiso.solvers import LinearSolveError, SpdSolver

from conftest import random_spd


def test_spd_solver_zero_rhs():
    A = sp.identity(5, format="csr")
    assert np.all(SpdSolver(A).solve(np.zeros(5)) == 0.0)


def test_spd_solver_matches_dense_solve():
    mesh = mi.generate_rectangle(1.0, 1.0, 10, 10)
    M = mi.assemble_mass(mesh)
    A = (M + mi.assemble_stiffness(mesh)).tocsr()
    rng = np.random.default_rng(4)
    b = rng.standard_normal(A.shape[0])
    x = SpdSolver(A, rtol=1e-11).solve(b)
    assert np.allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-8)


def test_spd_solver_detects_singular():
    mesh = mi.generate_interval(1.0, 5)
    A = mi.assemble_stiffness(mesh)  # singular (Neumann kernel)
    solver = SpdSolver(A.tocsr(), rtol=1e-10)
    with pytest.raises(LinearSolveError):
        solver.solve(np.ones(A.shape[0]))


def _square_system():
    mesh = mi.generate_rectangle(1.0, 1.0, 10, 10)
    M = mi.assemble_mass(mesh)
    return (M + mi.assemble_stiffness(mesh)).tocsr()


def test_block_solve_matches_column_solves():
    A = _square_system()
    b = np.random.default_rng(5).standard_normal((A.shape[0], 6))
    solver = SpdSolver(A, rtol=1e-11)
    x = solver.solve(b)
    columns = np.column_stack([solver.solve(b[:, i]) for i in range(6)])
    assert x.shape == b.shape
    assert np.abs(x - columns).max() <= 1e-12 * np.abs(columns).max()


def test_block_solve_detects_one_inconsistent_column():
    mesh = mi.generate_interval(1.0, 5)
    A = mi.assemble_stiffness(mesh).tocsr()  # singular (Neumann kernel)
    solver = SpdSolver(A, rtol=1e-10)
    consistent = A @ np.arange(A.shape[0], dtype=float)
    solver.solve(consistent)
    with pytest.raises(LinearSolveError):
        solver.solve(np.column_stack([consistent, np.ones(A.shape[0])]))


def test_block_solve_zero_column():
    A = _square_system()
    b = np.random.default_rng(6).standard_normal((A.shape[0], 3))
    b[:, 1] = 0.0
    x = SpdSolver(A, rtol=1e-11).solve(b)
    assert np.all(x[:, 1] == 0.0)
    assert np.all(x[:, [0, 2]] != 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(5, 60))
def test_spd_solver_residual_contract(seed, n):
    A = sp.csr_matrix(random_spd(n, seed=seed))
    b = np.random.default_rng(seed + 1).standard_normal(n)
    x = SpdSolver(A, rtol=1e-9).solve(b)
    assert np.linalg.norm(b - A @ x) <= 1e-9 * np.linalg.norm(b) * (1 + 1e-12)


def test_nonsymmetric_pattern_solves_to_rtol():
    rng = np.random.default_rng(7)
    n = 300
    A = sp.random(n, n, density=0.02, random_state=rng, format="csr")
    A = (A + sp.diags(np.abs(A).sum(axis=1).A1 + 1.0)).tocsr()
    pattern = (A != 0).astype(int)
    assert (pattern != pattern.T).nnz > 0
    b = rng.standard_normal((n, 3))
    x = SpdSolver(A, rtol=1e-12).solve(b)
    assert np.all(np.linalg.norm(b - A @ x, axis=0)
                  <= 1e-12 * np.linalg.norm(b, axis=0))


def test_stacked_growth_matrix_solves_to_rtol():
    # M2/tau + diag(A, d A) - gamma M2 J at the Schnakenberg steady state:
    # the simulator's 2n x 2n growth matrix, nonsymmetric in its coupling
    mesh = mi.generate_rectangle(1.0, 1.0, 12, 12)
    M = mi.assemble_mass(mesh)
    A = mi.assemble_stiffness(mesh)
    model = mi.schnakenberg()
    s = model.steady_state()
    J = model.jacobian(s.u, s.v)
    tau, d, gamma = 0.05, 20.0, 50.0
    K = sp.bmat([[M / tau + A - gamma * J.f_u * M, -gamma * J.f_v * M],
                 [-gamma * J.g_u * M, M / tau + d * A - gamma * J.g_v * M]],
                format="csr")
    assert abs(K - K.T).max() > 0.0
    b = np.random.default_rng(8).standard_normal(K.shape[0])
    x = SpdSolver(K, rtol=1e-11).solve(b)
    assert np.linalg.norm(b - K @ x) <= 1e-11 * np.linalg.norm(b)
    assert np.allclose(x, np.linalg.solve(K.toarray(), b), rtol=0.0,
                       atol=1e-9 * np.abs(x).max())


def test_ordering_cuts_fill_against_default_splu():
    mesh = mi.generate_rectangle(1.0, 1.0, 60, 60)
    A = (mi.assemble_mass(mesh) + mi.assemble_stiffness(mesh)).tocsr()
    ours = SpdSolver(A)._factor
    default = spla.splu(A.tocsc())
    assert (ours.L.nnz + ours.U.nnz
            <= 0.75 * (default.L.nnz + default.U.nnz))
