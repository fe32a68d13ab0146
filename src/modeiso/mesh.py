"""Simplicial mesh generation, deformation and validation.

Meshes are immutable: read-only vertex coordinates and simplex
connectivity, plus what validation computed: the cell measures and each
cell's Gram determinant and adjugate from `simplex_geometry`, which runs
once per mesh and serves the measures and `fem`'s stiffness alike.  They
compare and hash by identity.  Every vertex belongs to some cell.
The dimensions decide the kind: triangles in 3D are a surface and must be
an oriented manifold.  The disk generator snaps each level's boundary
vertices to the circle, read off the parent level's edge table.
Deformations map the whole `(n, e)` vertex array and are named by preset;
`dumbbell` and `fish` take 3D vertices only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Cells thinner than this fraction of the mean cell measure are rejected.
DEGENERACY_RTOL = 1e-12
# Two mapped vertices closer than this are considered coincident.
COINCIDENCE_TOL = 1e-12


class MeshError(ValueError):
    """Invalid mesh construction or deformation."""


class MeshKind(enum.Enum):
    PLANAR = "planar"
    VOLUMETRIC = "volumetric"
    SURFACE = "surface"


def simplex_geometry(vertices: np.ndarray,
                     cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's Gram determinant, (nc,), and Gram adjugate, (d, d, nc),
    for intrinsic dim d <= 3 in any embedding dim.  G holds the dot products
    of the edges from the cell's first vertex, summed coordinate by
    coordinate; adj G = det G * G^-1 is written out from them, exactly
    symmetric, with no LAPACK call."""
    ends = np.ascontiguousarray(cells.T)
    d = len(ends) - 1
    edges = np.array([x[ends[1:]] - x[ends[0]] for x in vertices.T])
    gram = np.empty((d, d, ends.shape[1]))
    for i in range(d):
        for j in range(i, d):
            gram[i, j] = gram[j, i] = (edges[:, i] * edges[:, j]).sum(axis=0)
    if d == 1:
        adj = np.ones_like(gram)
    elif d == 2:
        adj = gram[::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])[..., None]
    else:   # cofactors, with rows and columns taken cyclically
        p, q = [1, 2, 0], [2, 0, 1]
        adj = (gram[p][:, p] * gram[q][:, q] - gram[p][:, q] * gram[q][:, p])
    return (gram[0] * adj[:, 0]).sum(axis=0), adj


@dataclass(frozen=True, eq=False)   # array fields have no `==`
class Mesh:
    vertices: np.ndarray  # (n_vertices, embedding_dim), float64, read-only
    cells: np.ndarray     # (n_cells, intrinsic_dim + 1), int, read-only
    _measures: np.ndarray = field(init=False, repr=False, compare=False)
    # each cell's Gram determinant and adjugate, `simplex_geometry`'s
    # output kept from validation for `fem`'s stiffness
    _gram: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False,
                                                 compare=False)

    def __post_init__(self) -> None:
        # own copies, so no caller can change the mesh under its measures
        verts = np.array(self.vertices, dtype=float, order="C")
        cells = np.array(self.cells, dtype=np.intp, order="C")
        if verts.ndim != 2:
            raise MeshError("vertices must be a 2D array of coordinates")
        if cells.ndim != 2:
            raise MeshError("cells must be a 2D array of vertex indices")
        verts.flags.writeable = cells.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cells", cells)
        self._validate()

    @property
    def kind(self) -> MeshKind:
        if self.intrinsic_dim == 3:
            return MeshKind.VOLUMETRIC
        if self.intrinsic_dim == 2 and self.embedding_dim == 3:
            return MeshKind.SURFACE
        return MeshKind.PLANAR

    @property
    def embedding_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def intrinsic_dim(self) -> int:
        return self.cells.shape[1] - 1

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def cell_measures(self) -> np.ndarray:
        """Read-only length/area/volume of each cell."""
        return self._measures

    def measure(self) -> float:
        """Total length/area/volume of the mesh."""
        return float(self._measures.sum())

    def _validate(self) -> None:
        if self.intrinsic_dim not in (1, 2, 3):
            raise MeshError(f"unsupported intrinsic dim {self.intrinsic_dim}")
        if self.embedding_dim not in (1, 2, 3):
            raise MeshError(f"unsupported embedding dim {self.embedding_dim}")
        if self.intrinsic_dim > self.embedding_dim:
            raise MeshError("intrinsic dim exceeds embedding dim")
        if self.cells.size and (self.cells.min() < 0
                                or self.cells.max() >= self.n_vertices):
            raise MeshError("cell index out of range")
        if self.n_cells == 0:
            raise MeshError("mesh has no cells")
        stray = np.flatnonzero(np.bincount(self.cells.ravel(),
                                           minlength=self.n_vertices) == 0)
        if stray.size:   # each would be an empty row of M and A
            raise MeshError(f"vertices in no cell: {stray.tolist()[:10]}")
        if not np.isfinite(self.vertices).all():
            raise MeshError("non-finite vertex coordinates")
        with np.errstate(over="ignore", invalid="ignore"):
            det, adj = simplex_geometry(self.vertices, self.cells)
            # length/area/volume sqrt(det G) / d!
            measures = (np.sqrt(np.maximum(det, 0.0))
                        / math.factorial(self.intrinsic_dim))
        huge = np.flatnonzero(~np.isfinite(measures))
        if huge.size:   # it would make every finite cell look degenerate
            raise MeshError(f"cells with non-finite measure: "
                            f"{huge.tolist()[:10]}")
        bad = np.nonzero(measures <= DEGENERACY_RTOL * measures.mean())[0]
        if bad.size:
            raise MeshError(f"degenerate cells: {bad.tolist()[:10]}")
        if self.kind is MeshKind.SURFACE:
            _audit_surface(self.cells)
        for array in (measures, det, adj):
            array.flags.writeable = False
        object.__setattr__(self, "_measures", measures)
        object.__setattr__(self, "_gram", (det, adj))


def _edge_table(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """Edges of a triangle mesh, numbered in order of first appearance.

    Returns the undirected edges as (min, max) rows, each cell's three edge
    numbers for (t0, t1), (t1, t2), (t2, t0), and the number of cells
    sharing each edge.
    """
    directed = np.stack([cells, np.roll(cells, -1, axis=1)],
                        axis=-1).reshape(-1, 2)
    lo, hi = directed.min(axis=1), directed.max(axis=1)
    _, first, inverse, counts = np.unique(
        lo * (int(cells.max()) + 1) + hi,
        return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    edges = np.column_stack([lo[first[order]], hi[first[order]]])
    return edges, number[inverse.ravel()].reshape(-1, 3), counts[order]


def _audit_surface(cells: np.ndarray) -> None:
    """Check edge-manifoldness and consistent triangle orientation.

    No directed edge may appear twice.  That also rejects an edge shared by
    three or more triangles: two of them always traverse it the same way.
    """
    # directed edge (a, b) as the key a*top + b, listed cell by cell
    top = int(cells.max()) + 1
    walk = (cells * top + np.roll(cells, -1, axis=1)).ravel()
    ordered = np.sort(walk)
    twice = ordered[1:][ordered[1:] == ordered[:-1]]
    if twice.size:
        key = divmod(int(walk[np.isin(walk, twice)][0]), top)
        raise MeshError(f"edge {key} traversed twice in same direction"
                        " (inconsistent orientation or non-manifold)")


def boundary_edges(mesh: Mesh) -> list[tuple[int, int]]:
    """Undirected (min, max) edges of a triangle mesh that belong to exactly
    one cell, in order of first appearance."""
    if mesh.intrinsic_dim != 2:
        raise MeshError("boundary_edges requires a triangle mesh")
    edges, _, counts = _edge_table(mesh.cells)
    return [(int(a), int(b)) for a, b in edges[counts == 1]]


def boundary_loop_count(mesh: Mesh) -> int:
    """Number of connected components of the boundary edge graph."""
    edges = boundary_edges(mesh)
    if not edges:
        return 0
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(a) for a, _ in edges})


def euler_characteristic(mesh: Mesh) -> int:
    if mesh.intrinsic_dim != 2:
        raise MeshError("euler_characteristic implemented for triangle meshes")
    edges = _edge_table(mesh.cells)[0]
    return mesh.n_vertices - len(edges) + mesh.n_cells


# ---------------------------------------------------------------------------
# generators


def generate_interval(length: float, n_cells: int) -> Mesh:
    if length <= 0:
        raise MeshError("interval length must be positive")
    if n_cells < 1:
        raise MeshError("n_cells must be >= 1")
    x = np.linspace(0.0, length, n_cells + 1)
    cells = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    return Mesh(x[:, None], cells)


def generate_rectangle(lx: float, ly: float, nx: int, ny: int) -> Mesh:
    if lx <= 0 or ly <= 0:
        raise MeshError("rectangle sides must be positive")
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be >= 1")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    ids = np.arange(verts.shape[0]).reshape(nx + 1, ny + 1)
    v00, v10 = ids[:-1, :-1], ids[1:, :-1]
    v01, v11 = ids[:-1, 1:], ids[1:, 1:]
    # two triangles per square, squares in (i, j) order
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=-1)
    return Mesh(verts, cells.reshape(-1, 3))


def _quadrisect_triangles(verts: np.ndarray, cells: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split every triangle into four via edge midpoints.

    Midpoint vertices are appended in order of first edge appearance.
    Also returns the boundary vertices of the split mesh, read off the
    parent's edge table: the parent's boundary vertices, then the
    midpoints of its boundary edges.
    """
    edges, cell_edges, counts = _edge_table(cells)
    midpoints = (verts[edges[:, 0]] + verts[edges[:, 1]]) / 2.0
    t0, t1, t2 = cells.T
    a, b, c = (len(verts) + cell_edges).T
    new_cells = np.column_stack([t0, a, c, t1, b, a, t2, c, b, a, b, c])
    on_boundary = counts == 1
    boundary = np.concatenate([np.unique(edges[on_boundary]),
                               len(verts) + np.flatnonzero(on_boundary)])
    return (np.vstack([verts, midpoints]), new_cells.reshape(-1, 3),
            boundary)


def generate_disk(radius: float, refinement: int) -> Mesh:
    """Triangulated disk: hexagonal fan, quadrisected with boundary snapping."""
    if radius <= 0:
        raise MeshError("radius must be positive")
    if refinement < 0:
        raise MeshError("refinement must be non-negative")
    angles = np.arange(6) * (math.pi / 3.0)
    verts = np.vstack([[0.0, 0.0],
                       np.column_stack([np.cos(angles), np.sin(angles)])])
    verts *= radius
    cells = np.array([(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)])
    for _ in range(refinement):
        verts, cells, bnd = _quadrisect_triangles(verts, cells)
        norms = np.linalg.norm(verts[bnd], axis=1)
        verts[bnd] *= (radius / norms)[:, None]
    return Mesh(verts, cells)


_PHI = (1.0 + math.sqrt(5.0)) / 2.0

_ICOSA_VERTS = np.array([
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
], dtype=float)

_ICOSA_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
])


def generate_icosphere(refinement: int) -> Mesh:
    """Closed triangulated unit sphere via icosahedron subdivision."""
    if refinement < 0:
        raise MeshError("refinement must be non-negative")
    verts = _ICOSA_VERTS / np.linalg.norm(_ICOSA_VERTS, axis=1)[:, None]
    cells = _ICOSA_FACES.copy()
    for _ in range(refinement):
        verts, cells, _ = _quadrisect_triangles(verts, cells)
        verts /= np.linalg.norm(verts, axis=1)[:, None]
    return Mesh(verts, cells)


def generate_ball(refinement: int) -> Mesh:
    """Tetrahedral unit ball: fan from the origin to an icosphere boundary."""
    if refinement < 0:
        raise MeshError("refinement must be non-negative")
    surface = generate_icosphere(refinement + 1)
    verts = np.vstack([surface.vertices, [[0.0, 0.0, 0.0]]])
    center = surface.n_vertices
    cells = np.column_stack([
        np.full(surface.n_cells, center),
        surface.cells[:, 0], surface.cells[:, 2], surface.cells[:, 1],
    ])
    return Mesh(verts, cells)


def generate_tube(length: float, radius: float, closed_ends: bool,
                  refinement: int) -> Mesh:
    """Cylinder surface along the z-axis, optionally with hemispherical caps."""
    if length <= 0 or radius <= 0:
        raise MeshError("length and radius must be positive")
    if refinement < 0:
        raise MeshError("refinement must be non-negative")
    n_theta = 8 * 2 ** refinement
    dz_target = 2.0 * math.pi * radius / n_theta
    n_z = max(1, round(length / dz_target))
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])

    # rings listed from bottom to top as (radial scale, z)
    rings: list[tuple[float, float]] = []
    n_phi = max(2, n_theta // 4)
    if closed_ends:
        # poles themselves are added as single vertices below
        for i in range(n_phi - 1, 0, -1):
            phi = (math.pi / 2.0) * i / n_phi
            rings.append((math.cos(phi), -length / 2.0 - radius * math.sin(phi)))
    for j in range(n_z + 1):
        rings.append((1.0, -length / 2.0 + length * j / n_z))
    if closed_ends:
        for i in range(1, n_phi):
            phi = (math.pi / 2.0) * i / n_phi
            rings.append((math.cos(phi), length / 2.0 + radius * math.sin(phi)))

    verts = np.vstack([np.column_stack([radius * scale * circle,
                                        np.full(n_theta, z)])
                       for scale, z in rings])
    n_rings = len(rings)

    # two triangles per quad between rings j and j + 1, quads in (j, i) order
    i = np.arange(n_theta)
    i1 = np.roll(i, -1)
    lo = (np.arange(n_rings - 1) * n_theta)[:, None]
    hi = lo + n_theta
    cells = np.stack([lo + i, lo + i1, hi + i1, lo + i, hi + i1, hi + i],
                     axis=-1).reshape(-1, 3)
    if closed_ends:
        # collapse the degenerate polar rings into single pole vertices
        verts = np.vstack([verts,
                           [[0.0, 0.0, -length / 2.0 - radius],
                            [0.0, 0.0, length / 2.0 + radius]]])
        south = np.full(n_theta, len(verts) - 2)
        north = south + 1
        top = (n_rings - 1) * n_theta
        caps = np.stack([south, i1, i, north, top + i, top + i1], axis=-1)
        cells = np.vstack([cells, caps.reshape(-1, 3)])
    return Mesh(verts, cells)


# ---------------------------------------------------------------------------
# deformations

VertexMap = Callable[[np.ndarray], np.ndarray]

# preset constants: ellipse semi-axes, dumbbell waist radius factor and the
# Gaussian width in z over which the waist is pinched
ELLIPSE_AXES = (2.0, 1.0)
DUMBBELL_PINCH = 0.4
DUMBBELL_WIDTH = 0.45


def map_vertices(mesh: Mesh, vertex_map: VertexMap) -> Mesh:
    """Apply a smooth injective coordinate map to the `(n, e)` vertex
    array, keeping connectivity.

    Two images closer than COINCIDENCE_TOL in every coordinate are within
    COINCIDENCE_TOL * sum(r) (plus rounding) in the key P @ r, r > 0, and
    so is every key sorted between them: the sweep over sort offsets
    k = 1, 2, ... meets the pair before no keys that close remain.
    """
    P = np.asarray(vertex_map(mesh.vertices), dtype=float)
    if P.shape != mesh.vertices.shape:
        raise MeshError("vertex map must preserve the embedding dimension")
    r = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)])[: P.shape[1]]
    key = P @ r
    order = np.argsort(key, kind="stable")
    key, pts = key[order], P[order]
    # rounding moves a key gap by less than 1e-15 sum(r) max|P|
    reach = r.sum() * (COINCIDENCE_TOL + 1e-15 * np.abs(P).max())
    for k in range(1, len(key)):
        near = np.flatnonzero(key[k:] - key[:-k] <= reach)
        if not near.size:
            break
        close = near[np.all(np.abs(pts[near + k] - pts[near])
                            < COINCIDENCE_TOL, axis=1)]
        if close.size:
            raise MeshError("vertex map is not injective: vertices "
                            f"{int(order[close[0]])} and "
                            f"{int(order[close[0] + k])} coincide")
    return Mesh(P, mesh.cells)


def _xyz(P: np.ndarray, preset: str) -> np.ndarray:
    """The coordinate columns of a 3D point set, for a 3D-only preset."""
    if P.shape[1] != 3:
        raise MeshError(f"the {preset!r} deformation needs 3D vertices, "
                        f"got {P.shape[1]}D")
    return P.T


def ellipse_map(P: np.ndarray) -> np.ndarray:
    """Stretch the unit disk into an ellipse with 2:1 axes."""
    return P * np.array([*ELLIPSE_AXES, 1.0])[: P.shape[1]]


def dumbbell_map(P: np.ndarray) -> np.ndarray:
    """Pinch the radius of a 3D point set at the equator (z = 0)."""
    # scalar math.exp and `**` (C pow) on Python floats keep the pinned
    # dumbbell meshes bit for bit; np.exp and array `** 2` differ from them
    # in the last bit on some vertices
    x, y, z = _xyz(P, "dumbbell")
    gauss = [math.exp(-(t ** 2)) for t in (z / DUMBBELL_WIDTH).tolist()]
    factor = 1.0 - (1.0 - DUMBBELL_PINCH) * np.array(gauss)
    return np.column_stack([x * factor, y * factor, z])


def fish_map(P: np.ndarray) -> np.ndarray:
    """Smooth deformation of the unit sphere into a fish-like surface."""
    x, y, z = _xyz(P, "fish")
    return np.column_stack([1.6 * x, y * (1.0 - 0.35 * x),
                            z * (0.9 - 0.25 * x)])


DEFORMATION_PRESETS: dict[str, VertexMap] = {
    "ellipse": ellipse_map,
    "dumbbell": dumbbell_map,
    "fish": fish_map,
}
