"""P1 finite element assembly on simplicial meshes.

Mass and stiffness matrices use the exact element integrals for linear
basis functions, so no quadrature rule is involved.  Both reuse the cell
measures the mesh keeps.  No barycentric gradient is formed: the local
stiffness is |T| P^T G^-1 P with P = [-1 | I], G the Gram matrix of the
cell's edges and G^-1 = adj G / det G from the Gram determinant and
adjugate the mesh kept from its validation.  On surface meshes that is
the tangential gradient in each triangle's plane.

Both matrices scatter into one CSR pattern per mesh, built once and kept
for the last mesh assembled: each cell's vertex pairs sorted once into
unique edges, and a symmetric slot-id matrix, upper + upper^T + diagonal,
whose every slot names the edge or vertex sum that fills it.  A matrix
is then two `np.bincount` sums in cell order, one over edges and one
over vertices; each edge sum fills both (i, j) and (j, i), so the matrix
is exactly symmetric by construction.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh


def _pairs(npc: int) -> tuple[np.ndarray, np.ndarray]:
    """Local vertex pairs (a, b), a < b, in row-major order."""
    return np.triu_indices(npc, 1)


@functools.lru_cache(maxsize=1)   # M and A of the last mesh share it
def _pattern(mesh: Mesh) -> tuple[sp.csr_matrix, np.ndarray]:
    """The CSR pattern of a mesh's P1 matrices, the diagonal and both
    triangles of every edge, as a slot-id matrix: each slot holds 1 + its
    index into the edge sums followed by the vertex sums (1 +, as the
    sparse sum drops zeros).  Also the edge number of each cell's vertex
    pairs, (nc, pairs)."""
    n = mesh.n_vertices
    a, b = _pairs(mesh.intrinsic_dim + 1)
    ends = mesh.cells[:, a], mesh.cells[:, b]
    keys = np.minimum(*ends) * n + np.maximum(*ends)
    edges, cell_edges = np.unique(keys, return_inverse=True)
    upper = sp.csr_matrix((np.arange(1, len(edges) + 1), np.divmod(edges, n)),
                          shape=(n, n))
    slots = upper + upper.T + sp.diags(len(edges) + np.arange(1, n + 1),
                                       dtype=np.intp)
    return slots, cell_edges.reshape(mesh.n_cells, -1)


def _assemble(mesh: Mesh, diagonal: np.ndarray,
              pairs: np.ndarray) -> sp.csr_matrix:
    """Sum symmetric element matrices, given by their diagonals (nc, d+1)
    and their pair entries (nc, pairs) in `_pairs` order, in cell order.
    Each edge sum fills both of its slots, so the matrix is exactly
    symmetric; exact zeros are not stored."""
    slots, cell_edges = _pattern(mesh)
    sums = np.concatenate([np.bincount(cell_edges.ravel(), pairs.ravel()),
                           np.bincount(mesh.cells.ravel(), diagonal.ravel())])
    mat = sp.csr_matrix((sums[slots.data - 1], slots.indices.copy(),
                         slots.indptr.copy()), shape=slots.shape)
    mat.eliminate_zeros()
    return mat


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix; entries sum to the domain measure.
    Local entries are |T| (1 + delta_ij) / ((d + 1)(d + 2))."""
    d = mesh.intrinsic_dim
    measures = mesh.cell_measures()[:, None]
    scale = (d + 1) * (d + 2)
    pairs = len(_pairs(d + 1)[0])
    return _assemble(mesh, np.repeat(measures * (2.0 / scale), d + 1, axis=1),
                     np.repeat(measures * (1.0 / scale), pairs, axis=1))


def _local_stiffness(mesh: Mesh) -> np.ndarray:
    """Per-cell stiffness |T| P^T G^-1 P, (nc, d+1, d+1), exactly symmetric:
    G^-1 = adj G / det G is the Gram matrix of the gradients of lambda_1..d,
    and P = [-1 | I] adds lambda_0 = 1 - lambda_1 - ... - lambda_d."""
    det, adj = mesh._gram
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
    local = _local_stiffness(mesh)
    a, b = _pairs(mesh.intrinsic_dim + 1)
    return _assemble(mesh, np.diagonal(local, axis1=1, axis2=2),
                     local[:, a, b])


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
