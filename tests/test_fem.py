import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modeiso as mi
from modeiso.fem import interpolate, m_inner, m_norm


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
    mesh = mi.generate_disk(1.0, 2)
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


@pytest.mark.parametrize("build, sha", [
    (lambda: mi.generate_interval(2.5, 7),
     "717f186a1e70f7bb4f84addfea0d2c85a4b6798333018dc223c48f6755fe3cba"),
    (lambda: mi.generate_rectangle(1.0, 1.0, 4, 4),
     "dc1722d955de3a86ab1f120204224be4b105eba1ae9adbf01232b7791cf52ad7"),
    (lambda: mi.map_vertices(mi.generate_icosphere(2), mi.dumbbell_map),
     "f72b55f8439837d457d7b91b5237c33401eb8ad4bfe10144b069f5925b40400f"),
    (lambda: mi.generate_tube(3.0, 1.0, True, 1),
     "8fde9521cf1c6dfaedbf16762dec104bd7c56cef156ebe0ec2b63a016408b9ef"),
    (lambda: mi.generate_ball(0),
     "25d1dff0b2ac2d522f95bc9c66a8ecd0e04800178bb7d3d276ea5d4f6a1a27ac"),
], ids=["interval7", "rectangle4x4", "dumbbell_icosphere2", "closed_tube1",
        "ball0"])
def test_assembled_matrices_are_pinned(build, sha):
    # Pins the CSR arrays of M and A bit for bit: every eigenpair, isolation
    # walk and time step downstream is computed from them.
    mesh = build()
    assert _csr_sha256(mi.assemble_mass(mesh),
                       mi.assemble_stiffness(mesh)) == sha
