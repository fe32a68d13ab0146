import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import modeiso as mi
from modeiso.kinetics import (Jacobian2x2, KineticsError,
                              critical_diffusion_ratio, dimensionless_window,
                              dispersion, growth_rate, make_model,
                              max_growth_rate, wavenumber_window)

MODELS = [mi.schnakenberg(), mi.gierer_meinhardt(), mi.thomas()]


def test_schnakenberg_steady_state_exact():
    state = mi.schnakenberg().steady_state()
    assert (state.u, state.v) == (1.0, 0.9)


def test_gm_and_thomas_steady_states():
    gm = mi.gierer_meinhardt().steady_state()
    assert gm.u == pytest.approx(0.8395, abs=1e-3)
    assert gm.v == pytest.approx(0.7047, abs=1e-3)
    th = mi.thomas().steady_state()
    assert th.u == pytest.approx(37.74, abs=1e-2)
    assert th.v == pytest.approx(25.16, abs=1e-2)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_steady_state_zeroes_kinetics(model):
    s = model.steady_state()
    assert abs(model.f(s.u, s.v)) < 1e-8 * max(1.0, abs(s.u))
    assert abs(model.g(s.u, s.v)) < 1e-8 * max(1.0, abs(s.u))


# Each model's steady state and Jacobian there, as (u, v, f_u, f_v, g_u,
# g_v), pinned bit for bit: any change to the formulas or to the root
# search shows here.
PINNED = {
    "schnakenberg": (1.0, 0.9, 0.8, 1.0, -1.8, -1.0),
    "gierer_meinhardt": (0.8394568695002604, 0.7046878357511773,
                         0.30273866762598556, -1.049339625271125,
                         1.6789137390005209, -1.0),
    "thomas": (37.738210819213705, 25.158807212809133, 0.8995835147011233,
               -4.462126850100839, 1.8995835147011233, -5.962126850100839),
}


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_steady_state_and_jacobian_are_pinned(model):
    s = model.steady_state()
    J = model.jacobian(s.u, s.v)
    assert (s.u, s.v, J.f_u, J.f_v, J.g_u, J.g_v) == PINNED[model.name]


def test_gierer_meinhardt_steady_state_solves_g_exactly():
    # the root search runs on the reduction v = u^2 of g = 0
    s = mi.gierer_meinhardt().steady_state()
    assert s.v == s.u * s.u


def test_thomas_steady_state_past_the_inhibition_pole():
    # a damped Newton from v = b/4 starts at u = -17.5, beyond the pole of
    # 1 + u + K u^2, and never reaches this root
    s = mi.thomas(50.0, 60.0, 0.05, 1.5, 13.0).steady_state()
    assert s.u == pytest.approx(0.1673, abs=1e-4)
    assert s.v == pytest.approx(26.778, abs=1e-3)


def test_thomas_steady_state_has_a_positive_substrate():
    # a damped Newton that guards only v > 0 returned u = -24.05 here
    s = mi.thomas(50.0, 60.0, 0.01, 1.5, 5.0).steady_state()
    assert s.u == pytest.approx(0.5777, abs=1e-4)
    assert s.v == pytest.approx(27.052, abs=1e-3)


THOMAS_GRID = list(itertools.product([50.0, 100.0, 150.0, 200.0],
                                     [60.0, 100.0, 140.0], [0.01, 0.05, 0.1],
                                     [0.5, 1.5, 3.0], [5.0, 13.0, 20.0, 30.0]))


def test_thomas_steady_states_on_a_parameter_grid():
    for a, b, K, alpha, rho in THOMAS_GRID:
        model = mi.thomas(a, b, K, alpha, rho)
        s = model.steady_state()
        assert s.u > 0 and s.v > 0, (a, b, K, alpha, rho)
        residual = max(abs(model.f(s.u, s.v)), abs(model.g(s.u, s.v)))
        assert residual <= 1e-9 * max(1.0, abs(s.u), abs(s.v)), \
            (a, b, K, alpha, rho)


def test_thomas_bistable_point_returns_the_smallest_root():
    # f along u = a - alpha (b - v) has roots near v = 42.51, 53.47 and
    # 66.23; one bracketed solve over all of [40, 140] finds the last
    model = mi.thomas(150.0, 140.0, 0.05, 1.5, 5.0)
    s = model.steady_state()
    assert s.v == pytest.approx(42.51, abs=1e-2)
    v = np.linspace(40.0, 140.0, 100_001)
    residual = model.f(150.0 - 1.5 * (140.0 - v), v)
    crossings = v[1:][np.sign(residual[1:]) != np.sign(residual[:-1])]
    assert len(crossings) == 3 and crossings[0] == pytest.approx(s.v,
                                                                  abs=1e-3)


@pytest.mark.parametrize("params", [
    {"alpha": 0.0}, {"a": 0.0}, {"b": 0.0}, {"rho": 0.0},
    {"a": 0.0, "b": 0.0, "K": 0.0, "alpha": 0.0, "rho": 0.0}],
    ids=lambda p: ",".join(p))
def test_thomas_edge_parameters_give_a_state_or_a_kinetics_error(params):
    model = mi.thomas(**params)
    try:
        s = model.steady_state()
    except KineticsError:
        return
    assert s.u >= 0 and s.v >= 0
    assert model.f(s.u, s.v) == pytest.approx(0.0, abs=1e-9 * max(1.0, s.u))
    assert model.g(s.u, s.v) == pytest.approx(0.0, abs=1e-9 * max(1.0, s.v))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.floats(1e-3, 100.0), b=st.floats(1e-3, 100.0))
def test_gierer_meinhardt_without_saturation(a, b):
    # k = 0 puts the root at u = (a + 1)/b, where f rounds to either sign:
    # the bracket must reach past it
    s = mi.gierer_meinhardt(a, b, 0.0).steady_state()
    assert s.u == pytest.approx((a + 1.0) / b, rel=1e-12)


def _fd_jacobian(model, u, v, h=1e-6):
    return np.array([
        [(model.f(u + h, v) - model.f(u - h, v)) / (2 * h),
         (model.f(u, v + h) - model.f(u, v - h)) / (2 * h)],
        [(model.g(u + h, v) - model.g(u - h, v)) / (2 * h),
         (model.g(u, v + h) - model.g(u, v - h)) / (2 * h)],
    ])


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_jacobian_matches_finite_differences(model):
    s = model.steady_state()
    J = model.jacobian(s.u, s.v)
    fd = _fd_jacobian(model, s.u, s.v, h=1e-6 * max(1.0, abs(s.u)))
    analytic = np.array([[J.f_u, J.f_v], [J.g_u, J.g_v]])
    scale = np.abs(analytic).max()
    assert np.abs(analytic - fd).max() < 1e-6 * scale


def test_schnakenberg_jacobian_values(schnakenberg_jacobian):
    J = schnakenberg_jacobian
    assert (J.f_u, J.f_v, J.g_u, J.g_v) == pytest.approx((0.8, 1.0, -1.8,
                                                          -1.0))


def test_critical_diffusion_ratio_schnakenberg(schnakenberg_jacobian):
    assert critical_diffusion_ratio(schnakenberg_jacobian) == pytest.approx(
        8.5677, abs=1e-4)


def _probed_critical_ratio(J):
    """The critical ratio as it was first computed: the smallest positive
    root of q(d) at which both instability conditions hold just above
    it.  Kept as the reference for `critical_diffusion_ratio`."""
    aa = J.f_u ** 2
    bb = 2.0 * (2.0 * J.f_v * J.g_u - J.f_u * J.g_v)
    cc = J.g_v ** 2
    if aa == 0.0:
        raise KineticsError("f_u = 0: no critical diffusion ratio")
    disc = bb * bb - 4.0 * aa * cc
    if disc < 0:
        raise KineticsError("no real critical diffusion ratio")
    sq = math.sqrt(disc)
    candidates = sorted(r for r in ((-bb - sq) / (2 * aa),
                                    (-bb + sq) / (2 * aa)) if r > 0)
    for root in candidates:
        d = root * (1.0 + 1e-9) + 1e-12
        trace_d = d * J.f_u + J.g_v
        if trace_d > 0 and trace_d ** 2 - 4.0 * d * J.det > 0:
            return root
    raise KineticsError("no admissible critical diffusion ratio")


@st.composite
def turing_jacobians(draw):
    """f_u > 0, trace < 0 and det > 0: g_v = -f_u - t, and g_u chosen so
    that det is near the drawn margin (rounding may leave it <= 0)."""
    f_u = draw(st.floats(1e-3, 10.0))
    g_v = -f_u - draw(st.floats(1e-3, 10.0))
    f_v = draw(st.floats(1e-3, 10.0)) * draw(st.sampled_from([-1.0, 1.0]))
    margin = draw(st.floats(0.0, 10.0))
    J = Jacobian2x2(f_u, f_v, (f_u * g_v - margin) / f_v, g_v)
    assume(J.trace < 0 and J.det > 0)
    return J


@settings(max_examples=300, deadline=None, derandomize=True)
@given(J=turing_jacobians())
def test_critical_diffusion_ratio_is_the_probed_root(J):
    d_c = critical_diffusion_ratio(J)
    try:
        reference = _probed_critical_ratio(J)
    except KineticsError:
        # at det within rounding of 0 the two roots nearly meet and the
        # probe's q > 0 is lost to rounding: only the closed form answers
        assert d_c > 0 and d_c == pytest.approx(-J.g_v / J.f_u, rel=1e-6)
        return
    assert d_c == reference


@pytest.mark.parametrize("J", [
    Jacobian2x2(0.0, 1.0, -1.8, -1.0),      # f_u = 0
    Jacobian2x2(-0.8, 1.0, -1.8, 1.0),      # f_u < 0
    Jacobian2x2(0.8, 1.0, 1.8, -1.0),       # f_v g_u > 0: no real root
    Jacobian2x2(0.8, 1.0, 1.8, 1.0)],       # bb > 0: negative roots
    ids=["f_u=0", "f_u<0", "complex", "negative"])
def test_critical_diffusion_ratio_refuses_non_turing_kinetics(J):
    with pytest.raises(KineticsError, match="no critical diffusion ratio"):
        critical_diffusion_ratio(J)


def test_window_values(schnakenberg_jacobian):
    J = schnakenberg_jacobian
    lo, hi = wavenumber_window(J, 10.0, 15.0)
    assert math.sqrt(lo) == pytest.approx(1.7321, abs=1e-4)
    assert math.sqrt(hi) == pytest.approx(2.7386, abs=1e-4)


def test_dispersion_sign_structure(schnakenberg_jacobian):
    J = schnakenberg_jacobian
    d, gamma = 10.0, 15.0
    lo, hi = wavenumber_window(J, d, gamma)
    mid = 0.5 * (lo + hi)
    assert dispersion(J, d, gamma, mid) < 0
    assert dispersion(J, d, gamma, 0.5 * lo) > 0
    assert dispersion(J, d, gamma, 2.0 * hi) > 0
    assert dispersion(J, d, gamma, lo) == pytest.approx(0.0, abs=1e-9)


def test_window_requires_d_above_critical(schnakenberg_jacobian):
    with pytest.raises(KineticsError):
        dimensionless_window(schnakenberg_jacobian, 5.0)


@settings(max_examples=30, deadline=None)
@given(d=st.floats(8.6, 50.0), gamma=st.floats(0.1, 200.0))
def test_window_scales_linearly_with_gamma(d, gamma):
    model = mi.schnakenberg()
    s = model.steady_state()
    J = model.jacobian(s.u, s.v)
    lo1, hi1 = wavenumber_window(J, d, 1.0)
    lo, hi = wavenumber_window(J, d, gamma)
    assert lo == pytest.approx(gamma * lo1, rel=1e-12)
    assert hi == pytest.approx(gamma * hi1, rel=1e-12)


def test_make_model_dispatch_and_errors():
    m = make_model("schnakenberg", a=0.5, b=0.2)
    assert m.params == {"a": 0.5, "b": 0.2}
    with pytest.raises(KineticsError, match="unknown"):
        make_model("brusselator")
    with pytest.raises(KineticsError):
        mi.schnakenberg(a=-1.0)


def test_jacobian_at_arbitrary_point_matches_fd():
    model = mi.thomas()
    J = model.jacobian(20.0, 10.0)
    fd = _fd_jacobian(model, 20.0, 10.0, h=1e-5)
    analytic = np.array([[J.f_u, J.f_v], [J.g_u, J.g_v]])
    assert np.abs(analytic - fd).max() < 1e-5 * np.abs(analytic).max()


def _largest_real_eigenvalue(J, d, gamma, k2):
    """max Re eig(gamma J - diag(1, d) k^2), one k^2 at a time."""
    mats = np.empty((len(k2), 2, 2))
    mats[:, 0, 0] = gamma * J.f_u - k2
    mats[:, 0, 1] = gamma * J.f_v
    mats[:, 1, 0] = gamma * J.g_u
    mats[:, 1, 1] = gamma * J.g_v - d * k2
    return np.linalg.eigvals(mats).real.max(axis=1)


def _brute_force_max_growth(J, d, gamma):
    """The largest real eigenvalue part over a k^2 grid, refined once
    around its maximum; returns the coarse grid, its values and the
    refined maximum."""
    scale = gamma * max(abs(J.f_u), abs(J.f_v), abs(J.g_u), abs(J.g_v))
    k2 = np.linspace(0.0, 20.0 * scale / min(1.0, d), 20_001)
    sigma = _largest_real_eigenvalue(J, d, gamma, k2)
    i = int(np.argmax(sigma))
    fine = np.linspace(k2[max(i - 1, 0)], k2[min(i + 1, len(k2) - 1)],
                       20_001)
    return k2, sigma, _largest_real_eigenvalue(J, d, gamma, fine).max()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("d, gamma", [(1.0, 20.0), (5.0, 3.0), (10.0, 15.0),
                                      (40.0, 200.0), (0.2, 7.0)])
def test_max_growth_rate_matches_brute_force_grid(model, d, gamma):
    s = model.steady_state()
    J = model.jacobian(s.u, s.v)
    k2, sigma, grid_max = _brute_force_max_growth(J, d, gamma)
    assert np.argmax(sigma) < len(k2) - 1
    # sigma(k^2) is each grid point's largest real eigenvalue part
    assert np.allclose(growth_rate(J, d, gamma, k2), sigma,
                       rtol=1e-9, atol=1e-9 * gamma)
    best = max_growth_rate(J, d, gamma)
    assert best >= grid_max - 1e-12 * gamma
    assert best == pytest.approx(grid_max, rel=1e-9, abs=1e-9 * gamma)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(entries=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       d=st.floats(0.05, 60.0), gamma=st.floats(0.1, 50.0))
def test_max_growth_rate_bounds_every_wavenumber(entries, d, gamma):
    J = Jacobian2x2(*entries)
    k2, sigma, grid_max = _brute_force_max_growth(J, d, gamma)
    assert np.argmax(sigma) < len(k2) - 1
    best = max_growth_rate(J, d, gamma)
    assert best >= grid_max - 1e-9 * gamma
    assert best == pytest.approx(grid_max, rel=1e-8, abs=1e-8 * gamma)


def test_growth_rate_sign_follows_dispersion(schnakenberg_jacobian):
    J = schnakenberg_jacobian
    d, gamma = 10.0, 15.0
    lo, hi = wavenumber_window(J, d, gamma)
    inside, outside = 0.5 * (lo + hi), np.array([0.5 * lo, 2.0 * hi])
    assert growth_rate(J, d, gamma, inside) > 0
    assert np.all(growth_rate(J, d, gamma, outside) < 0)
    assert max_growth_rate(J, d, gamma) >= growth_rate(J, d, gamma, inside)
    # below d_c nothing grows: the uniform mode's decaying oscillation
    # has the largest real part, gamma trace / 2
    assert max_growth_rate(J, 1.0, 20.0) == pytest.approx(20.0 * J.trace / 2)


def test_max_growth_rate_under_species_swap(schnakenberg_jacobian):
    # Swapping u and v and rescaling time by d gives the system with
    # d' = 1/d, gamma' = gamma/d and the mirrored Jacobian, whose growth
    # rates are sigma/d: the d < 1 side of the closed form.
    J = schnakenberg_jacobian
    mirrored = Jacobian2x2(J.g_v, J.g_u, J.f_v, J.f_u)
    for d, gamma in [(10.0, 15.0), (40.0, 200.0), (5.0, 3.0)]:
        swapped = max_growth_rate(mirrored, 1.0 / d, gamma / d)
        assert swapped == pytest.approx(max_growth_rate(J, d, gamma) / d,
                                        rel=1e-12, abs=1e-14)
        _, _, grid_max = _brute_force_max_growth(mirrored, 1.0 / d, gamma / d)
        assert swapped == pytest.approx(grid_max, rel=1e-9, abs=1e-12)
