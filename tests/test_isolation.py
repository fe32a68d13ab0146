import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modeiso as mi
from modeiso.isolation import (IsolationError, IsolationStatus, isolate_mode,
                               pair_isolation)
from modeiso.kinetics import critical_diffusion_ratio
from modeiso.reference_spectra import (eigenvalue_array, rectangle_neumann,
                                       sphere_bulk_spectrum,
                                       sphere_surface_spectrum)


@pytest.fixture(scope="module")
def J(schnakenberg_jacobian):
    return schnakenberg_jacobian


@pytest.mark.parametrize("lx, n, target", [
    pytest.param(2.0, 10, 1, id="2x1-target1"),
    # index 10 is 3% above the target: a gamma excludes it at the floor
    pytest.param(1.25, 16, 9, id="1.25x1-target9"),
])
def test_unique_isolation_on_rectangle(J, lx, n, target):
    vals = eigenvalue_array(rectangle_neumann(lx, 1.0, n))
    result = isolate_mode(vals, target, J)
    assert result.status is IsolationStatus.UNIQUE
    assert result.excited_indices == (target,)
    assert pair_isolation(vals, J, result.d,
                          result.gamma).excited_indices == (target,)


def test_degenerate_pair_is_clustered(J):
    vals = eigenvalue_array(rectangle_neumann(1.0, 1.0, 10))
    result = isolate_mode(vals, 1, J)  # pi^2 has multiplicity two
    assert result.status is IsolationStatus.CLUSTERED
    assert set(result.excited_indices) == {1, 2}


def test_sphere_surface_cluster(J):
    vals = eigenvalue_array(sphere_surface_spectrum(30))
    result = isolate_mode(vals, 4, J)  # first member of the l = 2 level
    assert result.status is IsolationStatus.CLUSTERED
    assert set(result.excited_indices) == {4, 5, 6, 7, 8}


def test_unavoidable_near_pair_is_clustered(J):
    # the 20.1907 / 20.3771 bulk pair is 0.92% apart, yet a window whose
    # lower edge lies between them excites the l = 3 level alone
    vals = eigenvalue_array(sphere_bulk_spectrum(20))
    target = int(np.argmin(np.abs(vals - 4.51410 ** 2)))
    result = isolate_mode(vals, target, J)
    excited_vals = {round(float(vals[i]), 3) for i in result.excited_indices}
    assert excited_vals == {round(4.51410 ** 2, 3)}
    # a neighbour on each side within a/b = 1.01, less than the narrowest
    # window's R/L at the eps floor: no gamma leaves them out
    vals = np.array([0.0, 10.0, 19.9, 20.0, 20.1, 40.0])
    result = isolate_mode(vals, 3, J)
    assert result.status is IsolationStatus.CLUSTERED
    assert result.excited_indices == (2, 3, 4)


def test_all_visited_d_above_critical(J):
    vals = eigenvalue_array(sphere_bulk_spectrum(20))
    d_c = critical_diffusion_ratio(J)
    result = isolate_mode(vals, 5, J)
    assert result.trace
    assert all(d > d_c for d, _, _ in result.trace)


def test_window_contains_target(J):
    vals = eigenvalue_array(rectangle_neumann(2.0, 1.0, 10))
    result = isolate_mode(vals, 3, J)
    lo, hi = result.window
    assert lo < vals[3] < hi


def test_rejects_trivial_target(J):
    vals = eigenvalue_array(rectangle_neumann(1.0, 1.0, 5))
    with pytest.raises(IsolationError, match="constant"):
        isolate_mode(vals, 0, J)


def test_rejects_out_of_range_target(J):
    with pytest.raises(IsolationError, match="range"):
        isolate_mode(np.array([0.0, 1.0]), 5, J)


def test_rejects_non_turing_kinetics():
    bad = mi.Jacobian2x2(f_u=1.0, f_v=0.0, g_u=0.0, g_v=1.0)
    with pytest.raises(IsolationError, match="Turing"):
        isolate_mode(np.array([0.0, 1.0, 2.0]), 1, bad)


def test_isolation_refuses_a_window_past_the_computed_spectrum(J):
    # pi^2 is double, but only its first member was computed: the window
    # that excites it alone among two eigenvalues also holds the second
    vals = eigenvalue_array(rectangle_neumann(1.0, 1.0, 2))
    with pytest.raises(IsolationError, match="eigensolver.count"):
        isolate_mode(vals, 1, J)


def test_pair_isolation_refuses_a_window_past_the_computed_spectrum(J):
    # the window (10, 20) reaches past l(l+1) = 6 of the five eigenvalues
    vals = eigenvalue_array(sphere_surface_spectrum(5))
    assert mi.wavenumber_window(J, 10.0, 20.0)[1] > vals[-1]
    with pytest.raises(IsolationError, match="eigensolver.count"):
        pair_isolation(vals, J, 10.0, 20.0)


def test_pair_isolation_excites_the_window_interior(J):
    vals = np.array([0.0, 4.0, 9.0, 25.0])
    excited = pair_isolation(vals, J, 10.0, 15.0).excited_indices
    lo, hi = mi.wavenumber_window(J, 10.0, 15.0)
    assert excited == tuple(i for i, v in enumerate(vals) if lo < v < hi)


@settings(max_examples=25, deadline=None)
@given(target=st.integers(1, 12), seed=st.integers(0, 100))
def test_isolation_soundness_property(target, seed):
    model = mi.schnakenberg()
    state = model.steady_state()
    Jm = model.jacobian(state.u, state.v)
    rng = np.random.default_rng(seed)
    vals = eigenvalue_array(rectangle_neumann(1.0 + rng.random(),
                                              1.0 + rng.random(), 16))
    result = isolate_mode(vals, target, Jm)
    assert result.status is not IsolationStatus.FAILED
    if result.status is IsolationStatus.UNIQUE:
        assert pair_isolation(vals, Jm, result.d,
                              result.gamma).excited_indices == (target,)
    assert target in result.excited_indices
    d_c = critical_diffusion_ratio(Jm)
    assert all(d > d_c for d, _, _ in result.trace)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gaps=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=30),
       target=st.integers(1, 29),
       model=st.sampled_from(["schnakenberg", "gierer_meinhardt", "thomas"]))
def test_isolate_mode_never_fails(gaps, target, model):
    # an isolating rung excites the target, and the eps floor returns
    # CLUSTERED: FAILED is left to explicit pairs that excite nothing
    vals = np.concatenate(([0.0], 0.5 + np.cumsum(gaps)))
    target = min(target, len(vals) - 1)
    m = mi.make_model(model)
    state = m.steady_state()
    try:
        result = isolate_mode(vals, target, m.jacobian(state.u, state.v))
    except IsolationError as exc:
        assert "eigensolver.count" in str(exc)
        return
    assert result.status in (IsolationStatus.UNIQUE,
                             IsolationStatus.CLUSTERED)
