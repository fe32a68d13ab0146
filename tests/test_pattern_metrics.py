import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modeiso as mi
from modeiso.fem import interpolate
from modeiso.pattern_metrics import match_pattern


@pytest.fixture(scope="module")
def square_spectrum():
    mesh = mi.generate_rectangle(1.0, 1.0, 16, 16)
    M = mi.assemble_mass(mesh)
    A = mi.assemble_stiffness(mesh)
    return mesh, M, mi.smallest_eigenpairs(A, M, count=8, tol=1e-9, seed=0)


def test_match_recovers_eigenfunction(square_spectrum):
    mesh, M, spec = square_spectrum
    pattern = interpolate(lambda x, y: 3.0 + 0.5 * math.cos(math.pi * x),
                          mesh)
    report = match_pattern(pattern, spec, M, (1, 2))
    assert report.eigenspace == (1, 2)
    assert report.correlation > 0.999
    assert not report.uniform


def test_match_mixture_within_cluster(square_spectrum):
    mesh, M, spec = square_spectrum
    pattern = interpolate(
        lambda x, y: math.cos(math.pi * x) + 2.0 * math.cos(math.pi * y),
        mesh)
    report = match_pattern(pattern, spec, M, (1, 2))
    assert report.eigenspace == (1, 2)
    assert report.correlation > 0.999


def test_uniform_pattern_flagged(square_spectrum):
    mesh, M, spec = square_spectrum
    report = match_pattern(np.full(mesh.n_vertices, 7.3), spec, M, (1, 2))
    assert report.uniform
    assert report.correlation == 0.0
    assert report.best_index == -1


def test_orthogonal_pattern_scores_low(square_spectrum):
    mesh, M, spec = square_spectrum
    cases = [
        # a high-frequency field far outside the computed eigenspaces
        (lambda x, y: math.cos(9 * math.pi * x), range(1, len(spec))),
        # the computed eigenfunction of index 3, outside the target
        (lambda x, y: math.cos(math.pi * x) * math.cos(math.pi * y), (1, 2)),
    ]
    for field, target in cases:
        report = match_pattern(interpolate(field, mesh), spec, M, target)
        assert report.correlation < 0.3


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.01, 100.0), offset=st.floats(-50.0, 50.0),
       sign=st.sampled_from([-1.0, 1.0]))
def test_match_invariant_to_affine_rescaling(square_spectrum, scale, offset,
                                             sign):
    mesh, M, spec = square_spectrum
    base = interpolate(lambda x, y: math.cos(math.pi * y), mesh)
    r0 = match_pattern(base, spec, M, (1, 2))
    r1 = match_pattern(sign * scale * base + offset, spec, M, (1, 2))
    assert r1.correlation == pytest.approx(r0.correlation, abs=1e-9)
    assert r1.projection_residual == pytest.approx(r0.projection_residual,
                                                   abs=1e-9)


def test_size_mismatch_rejected(square_spectrum):
    mesh, M, spec = square_spectrum
    with pytest.raises(ValueError, match="mesh"):
        match_pattern(np.zeros(5), spec, M, (1, 2))
    with pytest.raises(ValueError, match="empty"):
        match_pattern(np.zeros(mesh.n_vertices), spec, M, ())
