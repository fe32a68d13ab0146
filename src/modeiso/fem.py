"""P1 finite element assembly on simplicial meshes.

Mass and stiffness matrices use the exact element integrals for linear
basis functions, so no quadrature rule is involved.  Both reuse the cell
measures the mesh keeps.  No barycentric gradient is formed: the local
stiffness is |T| P^T G^-1 P with P = [-1 | I], G the Gram matrix of the
cell's edges and G^-1 = adj G / det G from `mesh.simplex_geometry`.  On
surface meshes that is the tangential gradient in each triangle's plane.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, simplex_geometry


def _scatter(mesh: Mesh, local: np.ndarray) -> sp.csr_matrix:
    npc = mesh.intrinsic_dim + 1
    rows = np.repeat(mesh.cells, npc, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, npc)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                        shape=(mesh.n_vertices, mesh.n_vertices)).tocsr()
    # element matrices are symmetric; enforce exact symmetry of the sum
    return ((mat + mat.T) * 0.5).tocsr()


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix; entries sum to the domain measure."""
    d = mesh.intrinsic_dim
    npc = d + 1
    measures = mesh.cell_measures()
    base = (np.ones((npc, npc)) + np.eye(npc)) / ((d + 1) * (d + 2))
    local = measures[:, None, None] * base[None, :, :]
    return _scatter(mesh, local)


def _local_stiffness(mesh: Mesh) -> np.ndarray:
    """Per-cell stiffness |T| P^T G^-1 P, (nc, d+1, d+1), exactly symmetric:
    G^-1 = adj G / det G is the Gram matrix of the gradients of lambda_1..d,
    and P = [-1 | I] adds lambda_0 = 1 - lambda_1 - ... - lambda_d."""
    det, adj = simplex_geometry(mesh.vertices, mesh.cells)
    inv = adj * (mesh.cell_measures() / det)     # |T| G^-1, (d, d, nc)
    col = inv.sum(axis=0)                        # column sums, (d, nc)
    npc = mesh.intrinsic_dim + 1
    local = np.empty((mesh.n_cells, npc, npc))
    local[:, 1:, 1:] = inv.transpose(2, 0, 1)
    local[:, 0, 1:] = local[:, 1:, 0] = -col.T
    local[:, 0, 0] = col.sum(axis=0)
    return local


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """P1 stiffness matrix of the (tangential) Laplacian, Neumann kernel."""
    return _scatter(mesh, _local_stiffness(mesh))


def interpolate(fn, mesh: Mesh) -> np.ndarray:
    """Nodal (Lagrange) interpolant of a coordinate function."""
    return np.array([float(fn(*v)) for v in mesh.vertices])


def m_inner(M: sp.spmatrix, u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape[0] != M.shape[0]:
        raise ValueError(f"size mismatch: M is {M.shape}, "
                         f"u is {u.shape}, v is {v.shape}")
    return float(u @ (M @ v))


def m_norm(M: sp.spmatrix, u: np.ndarray) -> float:
    return math.sqrt(max(m_inner(M, u, u), 0.0))
