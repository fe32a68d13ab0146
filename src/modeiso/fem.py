"""P1 finite element assembly on simplicial meshes.

Mass and stiffness matrices use the exact element integrals for linear
basis functions, so no quadrature rule is involved.  Both reuse the cell
measures the mesh keeps; the barycentric gradients are solved from the
edge vectors and Gram matrices of `mesh.simplex_geometry`.  For surface
meshes the element gradients live in the triangle plane, which realizes
the tangential gradient on the piecewise-affine surface.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, simplex_geometry


def _barycentric_gradients(mesh: Mesh) -> np.ndarray:
    """Per-cell barycentric gradients (in embedding coords)."""
    edges, gram = simplex_geometry(mesh.vertices, mesh.cells)
    # gradients of barycentric coordinates 1..d: rows of (G^-1 E)
    grads_tail = np.linalg.solve(gram, edges)    # (nc, d, e)
    grads0 = -grads_tail.sum(axis=1, keepdims=True)
    return np.concatenate([grads0, grads_tail], axis=1)  # (nc, d+1, e)


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


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """P1 stiffness matrix of the (tangential) Laplacian, Neumann kernel."""
    measures = mesh.cell_measures()
    grads = _barycentric_gradients(mesh)
    local = measures[:, None, None] * (grads @ grads.transpose(0, 2, 1))
    return _scatter(mesh, local)


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
