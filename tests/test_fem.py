import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modeiso as mi
from modeiso import fem
from modeiso import mesh as mesh_module
from modeiso.fem import _local_stiffness, interpolate, m_inner, m_norm


def test_interval_single_cell_matrices():
    mesh = mi.generate_interval(1.0, 1)
    M = mi.assemble_mass(mesh).toarray()
    A = mi.assemble_stiffness(mesh).toarray()
    assert np.allclose(M, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)
    assert np.allclose(A, [[1, -1], [-1, 1]], atol=1e-15)


def test_mass_sums_to_measure():
    for mesh in (mi.generate_rectangle(1.0, 1.0, 8, 8),
                 mi.generate_icosphere(2),
                 mi.generate_ball(1),
                 mi.generate_interval(2.5, 7)):
        M = mi.assemble_mass(mesh)
        assert M.sum() == pytest.approx(mesh.measure(), rel=1e-10)


def test_icosphere3_mass_sums_to_sphere_area():
    M = mi.assemble_mass(mi.generate_icosphere(3))
    assert abs(M.sum() - 4 * math.pi) / (4 * math.pi) < 5e-3


def test_stiffness_kernel_contains_constants():
    for mesh in (mi.generate_rectangle(1.0, 2.0, 6, 4),
                 mi.generate_icosphere(2),
                 mi.generate_ball(1),
                 mi.generate_tube(3.0, 1.0, True, 1)):
        A = mi.assemble_stiffness(mesh)
        ones = np.ones(mesh.n_vertices)
        assert np.abs(A @ ones).max() < 1e-10


def test_matrices_exactly_symmetric():
    for build in (lambda: mi.generate_disk(1.0, 2), *TEST_MESHES.values()):
        mesh = build()
        for mat in (mi.assemble_mass(mesh), mi.assemble_stiffness(mesh)):
            assert (mat != mat.T).nnz == 0


def test_rayleigh_quotient_cos_pix():
    mesh = mi.generate_rectangle(1.0, 1.0, 32, 32)
    M = mi.assemble_mass(mesh)
    A = mi.assemble_stiffness(mesh)
    v = interpolate(lambda x, y: math.cos(math.pi * x), mesh)
    rq = (v @ (A @ v)) / (v @ (M @ v))
    assert abs(rq - math.pi ** 2) / math.pi ** 2 < 0.02


def test_interpolate_is_nodal():
    mesh = mi.generate_rectangle(1.0, 1.0, 1, 1)
    vals = interpolate(lambda x, y: x ** 2 + y ** 2, mesh)
    assert sorted(vals.tolist()) == [0.0, 1.0, 1.0, 2.0]
    assert np.all(interpolate(lambda x, y: 1.0, mesh) == 1.0)


def test_m_norm_analytic_integral():
    mesh = mi.generate_interval(1.0, 400)
    M = mi.assemble_mass(mesh)
    v = interpolate(lambda x: math.cos(math.pi * x), mesh)
    assert m_norm(M, v) == pytest.approx(math.sqrt(0.5), rel=1e-2)
    assert m_norm(M, np.ones(mesh.n_vertices)) == pytest.approx(1.0,
                                                                rel=1e-12)
    assert m_norm(M, np.zeros(mesh.n_vertices)) == 0.0


def test_m_inner_size_mismatch():
    mesh = mi.generate_interval(1.0, 3)
    M = mi.assemble_mass(mesh)
    with pytest.raises(ValueError, match="size"):
        m_inner(M, np.zeros(4), np.zeros(5))


@settings(max_examples=15, deadline=None)
@given(s=st.floats(0.3, 4.0), d=st.sampled_from([1, 2, 3]))
def test_scaling_law(s, d):
    base = {1: mi.generate_interval(1.0, 4),
            2: mi.generate_rectangle(1.0, 1.0, 3, 3),
            3: mi.generate_ball(0)}[d]
    scaled = mi.map_vertices(base, lambda P: P * s)
    M0, A0 = mi.assemble_mass(base), mi.assemble_stiffness(base)
    M1, A1 = mi.assemble_mass(scaled), mi.assemble_stiffness(scaled)
    assert np.allclose(M1.toarray(), s ** d * M0.toarray(), rtol=1e-9)
    assert np.allclose(A1.toarray(), s ** (d - 2) * A0.toarray(),
                       rtol=1e-9, atol=1e-12)


def test_surface_stiffness_matches_planar_for_flat_embedding():
    planar = mi.generate_rectangle(1.0, 1.0, 4, 4)
    lifted = mi.Mesh(np.column_stack([planar.vertices,
                                      np.ones(planar.n_vertices)]),
                     planar.cells)
    A_flat = mi.assemble_stiffness(planar).toarray()
    A_lift = mi.assemble_stiffness(lifted).toarray()
    assert np.allclose(A_flat, A_lift, atol=1e-12)


def _csr_sha256(*mats):
    digest = hashlib.sha256()
    for mat in mats:
        digest.update(np.ascontiguousarray(mat.data, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(mat.indices, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(mat.indptr, dtype="<i8").tobytes())
    return digest.hexdigest()


PINNED_MESHES = {
    "interval7": lambda: mi.generate_interval(2.5, 7),
    "rectangle4x4": lambda: mi.generate_rectangle(1.0, 1.0, 4, 4),
    "dumbbell_icosphere2": lambda: mi.map_vertices(mi.generate_icosphere(2),
                                                   mi.dumbbell_map),
    "closed_tube1": lambda: mi.generate_tube(3.0, 1.0, True, 1),
    "ball0": lambda: mi.generate_ball(0),
}


@pytest.mark.parametrize("name, sha", [
    ("interval7",
     "af24e42dbf1fdf72aa428474b2822a6d71e980af3b007bb425a69e1baccc5b81"),
    ("rectangle4x4",
     "dc1722d955de3a86ab1f120204224be4b105eba1ae9adbf01232b7791cf52ad7"),
    ("dumbbell_icosphere2",
     "12fcc7370e15356f5673a61f5b64e3affe5073f63e25e4673ebf292070dec836"),
    ("closed_tube1",
     "2da3c376d084dd2061c2b08a52c3698bdcd3e8c12d1bad1fef243a291443613a"),
    ("ball0",
     "7dad43037a6f4c532224b293194504933398f3e845423e42a8e5daea676a0420"),
], ids=list(PINNED_MESHES))
def test_assembled_matrices_are_pinned(name, sha):
    # Pins the CSR arrays of M and A bit for bit: every eigenpair, isolation
    # walk and time step downstream is computed from them.
    mesh = PINNED_MESHES[name]()
    assert _csr_sha256(mi.assemble_mass(mesh),
                       mi.assemble_stiffness(mesh)) == sha


def _batched_lapack_matrices(mesh):
    """Dense M and A by the batched formulas: Gram determinants by
    `np.linalg.det`, barycentric gradients by `np.linalg.solve`."""
    d = mesh.intrinsic_dim
    coords = mesh.vertices[mesh.cells]
    edges = coords[:, 1:] - coords[:, :1]
    gram = edges @ edges.transpose(0, 2, 1)
    measures = np.sqrt(np.linalg.det(gram)) / math.factorial(d)
    tail = np.linalg.solve(gram, edges)
    grads = np.concatenate([-tail.sum(axis=1, keepdims=True), tail], axis=1)
    base = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    where = (mesh.cells[:, :, None], mesh.cells[:, None, :])
    dense = []
    for local in (base[None], grads @ grads.transpose(0, 2, 1)):
        mat = np.zeros((mesh.n_vertices, mesh.n_vertices))
        np.add.at(mat, where, measures[:, None, None] * local)
        dense.append(mat)
    return dense


def _arc(e):
    t = np.linspace(0.0, 2.0, 9)
    curve = [np.cos(t), np.sin(t), 0.3 * t][:e]
    return mi.Mesh(np.column_stack(curve),
                   np.column_stack([np.arange(8), np.arange(1, 9)]))


TEST_MESHES = {**PINNED_MESHES, "arc_in_2d": lambda: _arc(2),
               "helix_in_3d": lambda: _arc(3)}


@pytest.mark.parametrize("build", TEST_MESHES.values(), ids=list(TEST_MESHES))
def test_matrices_match_batched_lapack_formulas(build):
    mesh = build()
    for mat, ref in zip((mi.assemble_mass(mesh), mi.assemble_stiffness(mesh)),
                        _batched_lapack_matrices(mesh)):
        scale = np.abs(ref).max()
        assert np.abs(mat.toarray() - ref).max() <= 1e-12 * scale


def _flipped_diagonals(rect):
    """The same grid with the other diagonal of every square."""
    v00, v10, v11, _, _, v01 = rect.cells.reshape(-1, 6).T
    cells = np.stack([v00, v10, v01, v10, v11, v01], axis=-1)
    return mi.Mesh(rect.vertices, cells.reshape(-1, 3))


def test_pattern_serves_only_the_mesh_it_was_built_from():
    # same vertex count, different edges: a pattern kept for one of them
    # must not be used for the other
    rect = mi.generate_rectangle(1.0, 1.0, 4, 4)
    meshes = {"rect": rect, "flipped": _flipped_diagonals(rect)}
    alone = {}
    for name, mesh in meshes.items():
        fem._pattern.cache_clear()
        alone[name] = _csr_sha256(mi.assemble_mass(mesh),
                                  mi.assemble_stiffness(mesh))
    assert alone["rect"] != alone["flipped"]
    dense = {name: _batched_lapack_matrices(mesh)
             for name, mesh in meshes.items()}
    for order in (["rect", "flipped"], ["flipped", "rect"]):
        fem._pattern.cache_clear()
        mats = {name: [] for name in order}
        for k, assemble in enumerate((mi.assemble_mass,
                                      mi.assemble_stiffness)):
            for name in order:
                mat = assemble(meshes[name])
                ref = dense[name][k]
                assert np.abs(mat.toarray() - ref).max() \
                    <= 1e-12 * np.abs(ref).max()
                mats[name].append(mat)
        assert {name: _csr_sha256(*m) for name, m in mats.items()} == alone


@pytest.mark.parametrize("name", ["rectangle4x4", "closed_tube1"])
def test_stiffness_stores_no_exact_zeros(name):
    # right angles opposite an edge give exact zeros, which stay out of
    # the stored pattern
    mesh = PINNED_MESHES[name]()
    A = mi.assemble_stiffness(mesh)
    assert A.nnz == np.count_nonzero(A.data)
    assert A.nnz < mi.assemble_mass(mesh).nnz


def test_gram_data_is_computed_once_per_mesh(monkeypatch):
    calls = []
    original = mesh_module.simplex_geometry
    monkeypatch.setattr(mesh_module, "simplex_geometry",
                        lambda *args: calls.append(1) or original(*args))
    mesh = mi.generate_tube(3.0, 1.0, True, 1)
    assert len(calls) == 1
    mi.assemble_mass(mesh)
    mi.assemble_stiffness(mesh)
    assert len(calls) == 1


DIMENSION_PAIRS = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


@settings(max_examples=30, deadline=None)
@given(dims=st.sampled_from(DIMENSION_PAIRS),
       seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.floats(-3.0, 3.0))
def test_simplex_kernels_on_random_well_shaped_cells(dims, seed, log_scale):
    # four disjoint cells, each the corner simplex {0, e_1, .., e_d} with
    # every coordinate moved by at most 0.1, turned into the embedding by a
    # random orthonormal frame, scaled and shifted
    d, e = dims
    rng = np.random.default_rng(seed)
    corner = np.vstack([np.zeros(d), np.eye(d)])
    blocks = []
    for _ in range(4):
        frame = np.linalg.qr(rng.standard_normal((e, d)))[0]
        local = corner + rng.uniform(-0.1, 0.1, corner.shape)
        blocks.append(local @ frame.T + rng.uniform(-5.0, 5.0, e))
    verts = 10.0 ** log_scale * np.vstack(blocks)
    cells = np.arange(4 * (d + 1)).reshape(4, d + 1)
    mesh = mi.Mesh(verts, cells)

    edges = verts[cells[:, 1:]] - verts[cells[:, :1]]
    ref = (np.sqrt(np.linalg.det(edges @ edges.transpose(0, 2, 1)))
           / math.factorial(d))
    assert np.allclose(mesh.cell_measures(), ref,
                       rtol=1e-12, atol=0.0)
    local = _local_stiffness(mesh)
    assert np.array_equal(local, local.transpose(0, 2, 1))
    A = mi.assemble_stiffness(mesh)
    assert np.abs(A @ np.ones(mesh.n_vertices)).max() \
        <= 1e-12 * np.abs(A.data).max()
