import hashlib
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modeiso as mi
from modeiso.mesh import (MeshError, MeshKind, boundary_edges,
                          boundary_loop_count, euler_characteristic)


def test_interval_basic():
    mesh = mi.generate_interval(2.0, 4)
    assert mesh.n_vertices == 5
    assert mesh.n_cells == 4
    assert mesh.intrinsic_dim == 1
    assert mesh.measure() == pytest.approx(2.0)


def test_rectangle_counts_and_area():
    mesh = mi.generate_rectangle(2.0, 3.0, 4, 6)
    assert mesh.n_vertices == 5 * 7
    assert mesh.n_cells == 2 * 4 * 6
    assert mesh.measure() == pytest.approx(6.0)
    assert mesh.kind is MeshKind.PLANAR


def test_rectangle_validation():
    with pytest.raises(MeshError):
        mi.generate_rectangle(-1.0, 1.0, 2, 2)
    with pytest.raises(MeshError):
        mi.generate_rectangle(1.0, 1.0, 0, 2)


def test_disk_area_converges():
    errors = []
    for r in (1, 2, 3):
        mesh = mi.generate_disk(1.0, r)
        errors.append(abs(mesh.measure() - math.pi) / math.pi)
    assert errors[-1] < 5e-3
    assert errors[2] < errors[0]
    assert boundary_loop_count(mi.generate_disk(1.0, 2)) == 1


def test_icosphere_counts():
    ico0 = mi.generate_icosphere(0)
    assert (ico0.n_vertices, ico0.n_cells) == (12, 20)
    ico2 = mi.generate_icosphere(2)
    assert (ico2.n_vertices, ico2.n_cells) == (162, 320)
    assert euler_characteristic(ico2) == 2
    assert boundary_loop_count(ico2) == 0


def test_icosphere_vertices_on_sphere():
    mesh = mi.generate_icosphere(3)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-12
    assert abs(mesh.measure() - 4 * math.pi) / (4 * math.pi) < 5e-3


def test_ball_volume():
    exact = 4.0 * math.pi / 3.0
    v0 = mi.generate_ball(0).measure()
    v2 = mi.generate_ball(2).measure()
    assert abs(v0 - exact) / exact < 0.25
    assert abs(v2 - exact) / exact < 0.02
    assert mi.generate_ball(1).kind is MeshKind.VOLUMETRIC


def test_tube_closed_is_sphere_like():
    mesh = mi.generate_tube(4.0, 1.0, True, 1)
    assert mesh.kind is MeshKind.SURFACE
    assert euler_characteristic(mesh) == 2
    assert boundary_loop_count(mesh) == 0
    exact = 2 * math.pi * 4.0 + 4 * math.pi  # lateral + two hemispheres
    assert abs(mesh.measure() - exact) / exact < 0.02


def test_tube_open_has_two_boundary_loops():
    mesh = mi.generate_tube(3.0, 0.5, False, 1)
    assert euler_characteristic(mesh) == 0
    assert boundary_loop_count(mesh) == 2


def test_surface_orientation_audit_rejects_flipped_triangle():
    # cell 7 is (45, 46, 47); reversed, it walks (45, 47) as a neighbour does
    mesh = mi.generate_icosphere(2)
    cells = mesh.cells.copy()
    cells[7] = cells[7][::-1]
    with pytest.raises(MeshError, match=re.escape(
            "edge (45, 47) traversed twice in same direction"
            " (inconsistent orientation or non-manifold)")):
        mi.Mesh(mesh.vertices, cells)


def _first_repeated_directed_edge(cells):
    walks = [(int(a), int(b)) for c in cells
             for a, b in zip(c, np.roll(c, -1))]
    counts = Counter(walks)
    return next((e for e in walks if counts[e] > 1), None)


@settings(max_examples=25, deadline=None)
@given(flips=st.lists(st.integers(0, 79), min_size=1, max_size=4))
def test_audit_names_first_repeated_edge_in_cell_order(flips):
    mesh = mi.generate_icosphere(1)
    cells = mesh.cells.copy()
    for c in flips:
        cells[c] = cells[c][::-1]
    expected = _first_repeated_directed_edge(cells)
    if expected is None:   # every flip undone by a second one
        mi.Mesh(mesh.vertices, cells)
        return
    with pytest.raises(MeshError, match=re.escape(f"edge {expected} ")):
        mi.Mesh(mesh.vertices, cells)


def test_closed_surface_with_a_third_triangle_on_an_edge_rejected():
    mesh = mi.generate_icosphere(1)
    a, b, _ = mesh.cells[0]
    apex = mesh.vertices[[a, b]].mean(axis=0) * 1.5
    vertices = np.vstack([mesh.vertices, apex])
    for fin in ([a, b, len(mesh.vertices)], [b, a, len(mesh.vertices)]):
        with pytest.raises(MeshError, match="traversed twice"):
            mi.Mesh(vertices, np.vstack([mesh.cells, fin]))


@pytest.mark.parametrize("build", [
    lambda: mi.generate_icosphere(3),
    lambda: mi.generate_tube(4.0, 1.0, True, 2),
    lambda: mi.generate_tube(3.0, 0.5, False, 2),
], ids=["icosphere3", "closed_tube2", "open_tube2"])
def test_valid_surfaces_pass_the_audit(build):
    assert build().kind is MeshKind.SURFACE   # built, so audited


def test_degenerate_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2], [0, 1, 3]])  # first triangle is a sliver
    with pytest.raises(MeshError, match="degenerate"):
        mi.Mesh(verts, cells)


def test_overflowing_cell_is_named_alone():
    # cell 1's area overflows to inf, which must not make cell 0 degenerate
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1e300, 1e300]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    with pytest.raises(MeshError, match=re.escape(
            "cells with non-finite measure: [1]")):
        mi.Mesh(verts, cells)
    # a finite huge cell still makes cell 0 relatively degenerate
    verts[3] = 1e150
    with pytest.raises(MeshError, match=re.escape("degenerate cells: [0]")):
        mi.Mesh(verts, cells)


# two cells on a shared facet for the other (intrinsic, embedding) pairs;
# the second cell's last vertex is the far one
TWO_CELLS = {
    (1, 1): ([[0.0], [1.0]], [[0, 1], [1, 2]]),
    (1, 2): ([[0.0, 0.0], [1.0, 0.0]], [[0, 1], [1, 2]]),
    (1, 3): ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0, 1], [1, 2]]),
    (2, 3): ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
             [[0, 1, 2], [1, 3, 2]]),
    (3, 3): ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
              [0.0, 0.0, 1.0]], [[0, 1, 2, 3], [1, 2, 3, 4]]),
}


@pytest.mark.parametrize("dims", list(TWO_CELLS),
                         ids=[f"{d}in{e}" for d, e in TWO_CELLS])
def test_overflowing_cell_is_named_alone_in_other_dimensions(dims):
    near, cells = TWO_CELLS[dims]
    for far, message in ((1e300, "cells with non-finite measure: [1]"),
                         (1e150, "degenerate cells: [0]")):
        verts = np.vstack([near, np.full(dims[1], far)])
        with pytest.raises(MeshError, match=re.escape(message)):
            mi.Mesh(verts, np.array(cells))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_vertex_rejected(bad):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    verts[3, 1] = bad
    with pytest.raises(MeshError, match="non-finite"):
        mi.Mesh(verts, np.array([[0, 1, 2], [1, 3, 2]]))


def test_index_out_of_range_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="index"):
        mi.Mesh(verts, np.array([[0, 1, 3]]))


def test_vertex_in_no_cell_rejected():
    # a stray vertex gives M and A an empty row, and every factorization
    # of them is singular
    rect = mi.generate_rectangle(1.0, 1.0, 2, 2)
    verts = np.vstack([rect.vertices[:4], [[5.0, 5.0]], rect.vertices[4:]])
    cells = np.where(rect.cells >= 4, rect.cells + 1, rect.cells)
    with pytest.raises(MeshError, match=re.escape("vertices in no cell: [4]")):
        mi.Mesh(verts, cells)


def test_map_vertices_preserves_connectivity():
    mesh = mi.generate_disk(1.0, 2)
    mapped = mi.map_vertices(mesh, mi.ellipse_map)
    assert np.array_equal(mapped.cells, mesh.cells)
    assert mapped.measure() == pytest.approx(2.0 * mesh.measure(), rel=1e-12)


def test_map_vertices_rejects_non_injective():
    mesh = mi.generate_rectangle(1.0, 1.0, 2, 2)
    with pytest.raises(MeshError, match="injective"):
        mi.map_vertices(mesh, lambda P: np.column_stack(
            [np.abs(P[:, 0] - 0.5), P[:, 1]]))


def test_map_vertices_rejects_near_coincident_vertices_sorted_apart():
    mesh = mi.Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                             [2.0, 0.0], [3.0, -1.0], [2.0, -1.0]]),
                   np.array([[0, 1, 2], [3, 4, 5]]))
    mapped = mesh.vertices.copy()
    mapped[3] = [2e-13, 0.0]
    mapped[4:] -= [2.0, 0.0]
    with pytest.raises(MeshError, match="injective"):
        mi.map_vertices(mesh, lambda P: mapped)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3]))
def test_map_vertices_names_the_one_near_coincident_pair(seed, dim):
    # distinct random images, then vertex j put within 1e-13 of vertex i
    # in every coordinate
    rng = np.random.default_rng(seed)
    mesh = mi.generate_rectangle(1.0, 1.0, 3, 3)
    if dim == 3:
        mesh = mi.generate_icosphere(0)
    codes = rng.choice(100 ** dim, mesh.n_vertices, replace=False)
    images = np.column_stack(np.unravel_index(codes, (100,) * dim)) / 7.0
    i, j = rng.choice(mesh.n_vertices, 2, replace=False)
    images[j] = images[i] + rng.uniform(-1e-13, 1e-13, dim)
    with pytest.raises(MeshError, match="injective") as info:
        mi.map_vertices(mesh, lambda P: images)
    named = {int(x) for x in re.findall(r"\d+", str(info.value))}
    assert named == {int(i), int(j)}


def test_map_vertices_rejects_collapse():
    mesh = mi.generate_rectangle(1.0, 1.0, 2, 2)
    with pytest.raises(MeshError):
        mi.map_vertices(mesh, lambda P: P * [1.0, 0.0])


@pytest.mark.parametrize("vertex_map", [
    lambda P: P[:, :1],
    lambda P: np.column_stack([P, P[:, 0]]),
    lambda P: P[:-1],
], ids=["drops_coordinate", "adds_coordinate", "drops_vertex"])
def test_map_vertices_rejects_wrong_shape(vertex_map):
    mesh = mi.generate_rectangle(1.0, 1.0, 2, 2)
    with pytest.raises(MeshError, match="preserve the embedding dimension"):
        mi.map_vertices(mesh, vertex_map)


def test_mesh_arrays_are_read_only():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    mesh = mi.Mesh(verts, cells)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        mesh.cells[0, 0] = 1
    with pytest.raises(ValueError):
        mesh.cell_measures()[0] = 0.0
    # the mesh copied its inputs, which stay the caller's to change
    verts[1, 0] = 2.0
    cells[0, 0] = 1
    assert mesh.vertices[1, 0] == 1.0 and mesh.cells[0, 0] == 0
    assert mesh.measure() == 0.5


@pytest.mark.parametrize("vertices, cells, kind", [
    (np.array([[0.0], [1.0]]), [[0, 1]], MeshKind.PLANAR),
    (np.array([[0.0, 0, 0], [1, 1, 1]]), [[0, 1]], MeshKind.PLANAR),
    (np.array([[0.0, 0], [1, 0], [0, 1]]), [[0, 1, 2]], MeshKind.PLANAR),
    (np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]), [[0, 1, 2]],
     MeshKind.SURFACE),
    (np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
     [[0, 1, 2, 3]], MeshKind.VOLUMETRIC),
], ids=["line_in_1d", "line_in_3d", "triangle_in_2d", "triangle_in_3d",
        "tetrahedron"])
def test_kind_follows_from_dimensions(vertices, cells, kind):
    assert mi.Mesh(vertices, np.array(cells)).kind is kind


@pytest.mark.parametrize("name", sorted(mi.DEFORMATION_PRESETS))
def test_deformation_presets_valid_on_sphere(name):
    base = mi.generate_icosphere(2)
    if name == "ellipse":
        base = mi.generate_disk(1.0, 2)
    mapped = mi.map_vertices(base, mi.DEFORMATION_PRESETS[name])
    assert mapped.n_vertices == base.n_vertices
    assert mapped.measure() > 0


@pytest.mark.parametrize("name", ["dumbbell", "fish"])
def test_3d_presets_reject_planar_vertices(name):
    with pytest.raises(mi.MeshError, match="3D"):
        mi.map_vertices(mi.generate_rectangle(1.0, 1.0, 2, 2),
                        mi.DEFORMATION_PRESETS[name])


def test_meshes_compare_and_hash_by_identity():
    a, b = mi.generate_interval(1.0, 2), mi.generate_interval(1.0, 2)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_dumbbell_pinches_equator():
    mesh = mi.generate_icosphere(2)
    mapped = mi.map_vertices(mesh, mi.dumbbell_map)
    near_equator = np.abs(mesh.vertices[:, 2]) < 0.1
    r_eq = np.linalg.norm(mapped.vertices[near_equator, :2], axis=1)
    assert r_eq.max() < 0.6  # pinched well below the unit radius


@settings(max_examples=20, deadline=None)
@given(s=st.floats(0.2, 5.0))
def test_uniform_scaling_scales_measures(s):
    mesh = mi.generate_rectangle(1.0, 1.0, 3, 3)
    scaled = mi.map_vertices(mesh, lambda P: P * s)
    assert scaled.measure() == pytest.approx(s ** 2 * mesh.measure(),
                                             rel=1e-10)


def test_boundary_edges_of_single_triangle():
    mesh = mi.Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]))
    assert sorted(boundary_edges(mesh)) == [(0, 1), (0, 2), (1, 2)]


def test_simplex_measures_tetrahedron():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert mi.Mesh(verts, np.array([[0, 1, 2, 3]])).cell_measures()[0] == \
        pytest.approx(1.0 / 6.0)


def _sha256(array, dtype):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype)
                          .tobytes()).hexdigest()


@pytest.mark.parametrize("build, vertices_sha, cells_sha", [
    (lambda: mi.generate_icosphere(3),
     "01808161a67ffda241677940dc1d926937e4a396eb9139984da1206b5c612a83",
     "52ba19c5cda73d335f2e29108333509a800acd29026ae2e6c65c32ec3dd5394b"),
    (lambda: mi.generate_disk(1.0, 3),
     "6697e69986ad061e8eb4a202cd203751dd502b443276f8f495599b0f761d58d2",
     "c62ae873cece16a8ef3599e9f649bfc380420f2388eba6cae6674ee83861406d"),
    (lambda: mi.generate_tube(3.0, 0.5, False, 2),
     "316440f8f863153180e50f841778f1fc2b5f24380616bacc293ceb1bf76b7dd4",
     "2351762899d28ba658247f6265067b9b7ffdbbbebfdc98721fee124bdc739802"),
    (lambda: mi.map_vertices(mi.generate_icosphere(2), mi.dumbbell_map),
     "1aef45e47d360eb6e829f2da57f697c955bbfd828961b863f9d7fb96daea7ab5",
     "b749ec47113ac6dd2fa5788272bee48303d83020354a7b3516876ae6685c404a"),
    (lambda: mi.map_vertices(mi.generate_icosphere(3), mi.dumbbell_map),
     "d604612f0b9c7f80888ebdfd830fc57856fbbb35d27069765598e81f76d3b2ff",
     "52ba19c5cda73d335f2e29108333509a800acd29026ae2e6c65c32ec3dd5394b"),
    (lambda: mi.map_vertices(mi.generate_icosphere(2), mi.fish_map),
     "421054bab1eec70d1f281298db4e46c096460ae428871b698a9710b35fa21e16",
     "b749ec47113ac6dd2fa5788272bee48303d83020354a7b3516876ae6685c404a"),
    (lambda: mi.map_vertices(mi.generate_disk(1.0, 3), mi.ellipse_map),
     "a70ff04220f909a7d9e30dd70472831b215a3c0ed451de35eadfcd2260c2446e",
     "c62ae873cece16a8ef3599e9f649bfc380420f2388eba6cae6674ee83861406d"),
    (lambda: mi.generate_tube(2.0, 0.5, True, 2),
     "777f45ac4156e58b01de8cfe2e4b318d0845569722a29abb4e2ed912a33a960a",
     "a78ae06d815a814ac9bd6fd5f4583248c44936d0cca4f634c361aa4b545f3b61"),
    (lambda: mi.generate_rectangle(2.0, 1.0, 3, 2),
     "c23d4869e9eb28e527b5b703209ceaee02c500d5a96a543249d282d5419f1214",
     "79ac7566919aff605ee18a7287c07f407e576b29d7720571d0427a5ba7fe4dec"),
    (lambda: mi.generate_ball(0),
     "ff976b807dd174a137b2680c67e724dac2dfd346e118b633d857ab26f1e7c898",
     "1a784b9b861bdb838fdaa4c7ff26d3fdf1853462b8f36f900330b6ebc8685024"),
    (lambda: mi.generate_icosphere(4),
     "9da72ac7edd8ad607f1ab0e8ebf0a6b04edbdf1b15353fe3e07fba24ae0e3118",
     "1d19353ebb1a280dd705a884e8db6ef144348417dd5324e62326249995dddb35"),
    (lambda: mi.generate_disk(1.0, 0),
     "b1fc1f3c9fb31648e89802b496260f717b39e094e9ccd1d4318caec5ebc3bbbe",
     "798df5934a425a91f26de351463155c4ee5aff6fc659fe621e7c8a797215d21f"),
    (lambda: mi.generate_disk(1.0, 1),
     "c74be9a05cb3118e2e901f4aa2d3b7c0f79b28117fce68e701647db36556bcec",
     "35c0551718919cfa80fbc2002da91fa16fca9d5181417a6a2d0394d837d474cb"),
    (lambda: mi.generate_disk(1.0, 2),
     "7ef479daaf9e907b52d0ba82f7a78b3ab2ea0ebde5695823ddcdc502e674185f",
     "ff19270dcba88e6d46e7069ff50b9c029477c99b933bdfb24168c477351c0477"),
    (lambda: mi.generate_disk(1.0, 4),
     "dccd95a50e10735b0e30ba1bfbe1da7523852b4bc5ddf7fce5559b73fd07c4fa",
     "987c520cf91bbce2448963bdd23437ecc53d832c4292a010f1341b5d41549e3d"),
    (lambda: mi.generate_disk(1.0, 5),
     "fefa26ef5490e50053956bd9fe14971771523d7a68b5d32f416e377d52eaff89",
     "d485b6a84026569fb54187088694caf8f477ec3bdb171a108ad91e4ba95a51f9"),
    (lambda: mi.generate_disk(1.0, 6),
     "8ae418c2d309e891cb2ce6e6feec59770de3499306681dccbd4cd3cba1a8e470",
     "85c83c1ade2fb89305a3c353a09ee1ec1be694d5da6bdf744a28afeda0cc0373"),
    (lambda: mi.generate_disk(1.0, 7),
     "39dbc0d6b795a1a9420e2769ca44b65939b75a97c9101a92855c6c731f0b0de1",
     "cb9ac443fddecc95ee81fa3aed4c1646ee2fcc2edfbe3c20a7be8fdee4491fa7"),
], ids=["icosphere3", "disk3", "open_tube2", "dumbbell_icosphere2",
        "dumbbell_icosphere3", "fish_icosphere2", "ellipse_disk3",
        "closed_tube2", "rectangle3x2", "ball0", "icosphere4", "disk0",
        "disk1", "disk2", "disk4", "disk5", "disk6", "disk7"])
def test_generated_numbering_is_pinned(build, vertices_sha, cells_sha):
    # Pins vertex numbering and coordinates bit for bit: eigenvector files
    # and VTK snapshots are indexed by vertex, so any reordering shows here.
    mesh = build()
    assert _sha256(mesh.vertices, "<f8") == vertices_sha
    assert _sha256(mesh.cells, "<i8") == cells_sha


def test_surface_audit_rejects_three_triangle_fan():
    # three triangles on the edge (0, 1): never an edge manifold
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [0, -1, 0]])
    cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshError):
        mi.Mesh(verts, cells)


@pytest.mark.parametrize("call, message", [
    (lambda: mi.Mesh(np.zeros(3), [[0, 1]]),
     "vertices must be a 2D array of coordinates"),
    (lambda: mi.Mesh(np.zeros((3, 2)), [0, 1, 2]),
     "cells must be a 2D array of vertex indices"),
    (lambda: mi.Mesh(np.eye(5, 3), [[0, 1, 2, 3, 4]]),
     "unsupported intrinsic dim 4"),
    (lambda: mi.Mesh(np.eye(3, 4), [[0, 1, 2]]),
     "unsupported embedding dim 4"),
    (lambda: mi.Mesh(np.arange(3.0)[:, None], [[0, 1, 2]]),
     "intrinsic dim exceeds embedding dim"),
    (lambda: mi.Mesh(np.eye(3, 2), np.zeros((0, 3), dtype=int)),
     "mesh has no cells"),
    (lambda: mi.generate_interval(0.0, 4), "interval length must be positive"),
    (lambda: mi.generate_interval(1.0, 0), "n_cells must be >= 1"),
    (lambda: mi.generate_rectangle(1.0, -1.0, 2, 2),
     "rectangle sides must be positive"),
    (lambda: mi.generate_rectangle(1.0, 1.0, 2, 0), "nx and ny must be >= 1"),
    (lambda: mi.generate_disk(0.0, 1), "radius must be positive"),
    (lambda: mi.generate_disk(1.0, -1), "refinement must be non-negative"),
    (lambda: mi.generate_icosphere(-1), "refinement must be non-negative"),
    (lambda: mi.generate_ball(-1), "refinement must be non-negative"),
    (lambda: mi.generate_tube(0.0, 1.0, True, 1),
     "length and radius must be positive"),
    (lambda: mi.generate_tube(1.0, 0.5, False, -1),
     "refinement must be non-negative"),
    (lambda: boundary_edges(mi.generate_ball(0)),
     "boundary_edges requires a triangle mesh"),
    (lambda: euler_characteristic(mi.generate_interval(1.0, 2)),
     "euler_characteristic implemented for triangle meshes"),
], ids=["vertices_1d", "cells_1d", "intrinsic_4", "embedding_4",
        "intrinsic_above_embedding", "no_cells", "interval_length",
        "interval_cells", "rectangle_sides", "rectangle_counts",
        "disk_radius", "disk_refinement", "icosphere_refinement",
        "ball_refinement", "tube_sides", "tube_refinement",
        "boundary_edges_tetrahedra", "euler_characteristic_interval"])
def test_mesh_refuses_invalid_input(call, message):
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        call()
