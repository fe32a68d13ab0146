import numpy as np
import pytest
import scipy.sparse as sp
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
