import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import modeiso as mi
from modeiso import simulator
from modeiso.eigensolver import dense_generalized_eig, smallest_eigenpairs
from modeiso.isolation import IsolationStatus, isolate_mode
from modeiso.kinetics import (Jacobian2x2, KineticsModel, SteadyState,
                              growth_rate)
from modeiso.pattern_metrics import match_pattern
from modeiso.simulator import (ImexStepper, SimulationConfig,
                               SimulationStatus, SwitchRule,
                               initial_condition, simulate)
from modeiso.solvers import SpdSolver

ZERO_KINETICS = KineticsModel("zero", {},
                              f=lambda u, v: 0.0 * u,
                              g=lambda u, v: 0.0 * v,
                              jacobian=lambda u, v: Jacobian2x2(0.0, 0.0,
                                                                0.0, 0.0),
                              steady_state=lambda: SteadyState(1.0, 1.0))


@pytest.fixture(scope="module")
def small_mesh():
    return mi.generate_rectangle(1.0, 1.0, 8, 8)


@pytest.fixture(scope="module")
def small_MA(small_mesh):
    return mi.assemble_mass(small_mesh), mi.assemble_stiffness(small_mesh)


def test_config_validation():
    model = mi.schnakenberg()
    with pytest.raises(ValueError, match="tau"):
        SimulationConfig(model=model, d=10.0, gamma=20.0, tau=-1e-3)
    with pytest.raises(ValueError, match="tau"):
        SimulationConfig(model=model, d=10.0, gamma=20.0, tau=1.0)
    with pytest.raises(ValueError):
        SimulationConfig(model=model, d=-1.0, gamma=20.0)
    with pytest.raises(ValueError):
        SimulationConfig(model=model, d=10.0, gamma=20.0, amplitude=-0.1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["tau", "stop_tol", "max_time", "amplitude",
                                  "d", "gamma"])
def test_config_refuses_non_finite_values(name, value):
    params = {"model": mi.schnakenberg(), "d": 10.0, "gamma": 20.0}
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        SimulationConfig(**{**params, name: value})


def test_initial_condition_refuses_a_negative_amplitude(small_mesh):
    state = mi.schnakenberg().steady_state()
    with pytest.raises(ValueError,
                       match="^amplitude must be non-negative$"):
        initial_condition(small_mesh, state, amplitude=-0.1, seed=0)


def test_initial_condition_bounds_and_determinism(small_mesh):
    state = mi.schnakenberg().steady_state()
    u1, v1 = initial_condition(small_mesh, state, amplitude=0.01, seed=5)
    u2, v2 = initial_condition(small_mesh, state, amplitude=0.01, seed=5)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    assert np.all(np.abs(u1 - state.u) <= 0.005 + 1e-15)
    assert np.all(np.abs(v1 - state.v) <= 0.005 + 1e-15)
    u3, _ = initial_condition(small_mesh, state, amplitude=0.01, seed=6)
    assert not np.array_equal(u1, u3)


def test_pure_diffusion_conserves_mass(small_mesh):
    config = SimulationConfig(model=ZERO_KINETICS, d=2.0, gamma=1.0,
                              tau=1e-3, stop_tol=1e-14, max_time=0.5,
                              seed=0, amplitude=0.0)
    M = mi.assemble_mass(small_mesh)
    A = mi.assemble_stiffness(small_mesh)
    rng = np.random.default_rng(0)
    u = 1.0 + 0.5 * rng.random(small_mesh.n_vertices)
    ones = np.ones_like(u)
    stepper = ImexStepper(M, A, config)
    # no kinetics: the growth matrix is M2/tau + D
    growth = stepper.growth_solver()
    mass = ones @ (M @ u)
    w = np.concatenate((u, u))
    for _ in range(200):
        w = w + growth.solve(stepper.residual(w))
        new_mass = ones @ (M @ w[:len(u)])
        assert abs(new_mass - mass) < 1e-9 * abs(mass)  # per-step drift
        mass = new_mass


def test_stepper_matches_dense_reference_loop():
    mesh = mi.generate_rectangle(1.0, 1.0, 16, 16)
    model = mi.schnakenberg()
    config = SimulationConfig(model=model, d=10.0, gamma=50.0, tau=1e-3)
    M = mi.assemble_mass(mesh)
    A = mi.assemble_stiffness(mesh)
    u0, v0 = initial_condition(mesh, model.steady_state(), 0.01, seed=3)

    stepper = ImexStepper(M, A, config)
    tau_g = stepper.growth_tau
    growth = stepper.growth_solver()
    w = np.concatenate((u0, v0))
    for _ in range(40):
        w = w + growth.solve(stepper.residual(w))
    u, v = np.split(w, 2)

    # Linearly implicit Euler written out per species, with the kinetics
    # Jacobian J at the steady state, solved by dense LAPACK:
    # (M/tau_g + A - gamma f_u M) u+ - gamma f_v M v+
    #     = M u/tau_g + gamma M (f - f_u u - f_v v), and the same for v.
    state = model.steady_state()
    J = model.jacobian(state.u, state.v)
    gamma = config.gamma
    Md, Ad = M.toarray(), A.toarray()
    K = np.block([
        [Md / tau_g + Ad - gamma * J.f_u * Md, -gamma * J.f_v * Md],
        [-gamma * J.g_u * Md,
         Md / tau_g + config.d * Ad - gamma * J.g_v * Md]])
    factors = scipy.linalg.lu_factor(K)
    u_ref, v_ref = u0, v0
    for _ in range(40):
        fu, gv = model.f(u_ref, v_ref), model.g(u_ref, v_ref)
        rhs = np.concatenate((
            Md @ u_ref / tau_g
            + gamma * Md @ (fu - J.f_u * u_ref - J.f_v * v_ref),
            Md @ v_ref / tau_g
            + gamma * Md @ (gv - J.g_u * u_ref - J.g_v * v_ref)))
        u_ref, v_ref = np.split(scipy.linalg.lu_solve(factors, rhs), 2)

    # sigma_max 2.8595: the 40 steps span t = 4.2, where the pattern grows
    assert tau_g == pytest.approx(simulator.GROWTH_STEP / 2.8595, rel=1e-4)
    assert np.abs(u - u0).max() > 0.5  # the pattern has grown to O(1)
    assert np.abs(u - u_ref).max() < 1e-8
    assert np.abs(v - v_ref).max() < 1e-8


def test_steady_state_is_fixed_point(small_mesh, small_MA):
    model = mi.schnakenberg()
    state = model.steady_state()
    config = SimulationConfig(model=model, d=10.0, gamma=20.0, tau=1e-3,
                              stop_tol=1e-16, max_time=0.1, amplitude=0.0)
    n = small_mesh.n_vertices
    out = simulate(small_mesh, config, *small_MA,
                   initial=(np.full(n, state.u), np.full(n, state.v)))
    assert np.abs(out.u - state.u).max() < 1e-10
    assert np.abs(out.v - state.v).max() < 1e-10


def test_stable_regime_returns_to_uniform(small_mesh, small_MA):
    model = mi.schnakenberg()
    state = model.steady_state()
    config = SimulationConfig(model=model, d=1.0, gamma=20.0, tau=1e-3,
                              stop_tol=1e-6, max_time=50.0, seed=2,
                              amplitude=0.01)
    out = simulate(small_mesh, config, *small_MA)
    assert out.status is SimulationStatus.CONVERGED
    assert out.ptc_steps == 0
    assert np.abs(out.u - state.u).max() < 1e-4
    assert np.abs(out.v - state.v).max() < 1e-4


def test_history_holds_every_growth_step(small_mesh, small_MA):
    # no kinetics: sigma_max = 0, so the growth step is tau
    config = SimulationConfig(model=ZERO_KINETICS, d=1.0, gamma=1.0,
                              tau=1e-3, stop_tol=1e-30, max_time=0.05,
                              amplitude=0.0)
    x = small_mesh.vertices[:, 0]
    out = simulate(small_mesh, config, *small_MA,
                   initial=(1.0 + x, 1.0 - x))
    assert out.status is SimulationStatus.MAX_TIME
    times = [t for t, _ in out.history]
    assert times == pytest.approx(1e-3 * np.arange(1, 51))


def test_divergence_detected(small_mesh, small_MA):
    blowup = KineticsModel("blowup", {},
                           f=lambda u, v: 1e6 * u,
                           g=lambda u, v: 1e6 * v,
                           jacobian=lambda u, v: Jacobian2x2(1e6, 0.0,
                                                             0.0, 1e6),
                           steady_state=lambda: SteadyState(0.0, 0.0))
    config = SimulationConfig(model=blowup, d=1.0, gamma=100.0, tau=1e-2,
                              stop_tol=1e-30, max_time=10.0, amplitude=0.0)
    n = small_mesh.n_vertices
    out = simulate(small_mesh, config, *small_MA,
                   initial=(np.ones(n), np.ones(n)))
    assert out.status is SimulationStatus.DIVERGED


def test_non_finite_initial_residual_is_diverged(small_mesh, small_MA):
    # v = 0 at one vertex is a pole of the Gierer-Meinhardt reaction
    model = mi.gierer_meinhardt()
    state = model.steady_state()
    n = small_mesh.n_vertices
    v = np.full(n, state.v)
    v[0] = 0.0
    config = SimulationConfig(model=model, d=30.0, gamma=50.0)
    with np.errstate(divide="ignore"):
        out = simulate(small_mesh, config, *small_MA,
                       initial=(np.full(n, state.u), v))
    assert out.status is SimulationStatus.DIVERGED
    assert out.residual_norm is None
    assert out.elapsed == 0.0 and out.history == ()


def test_reaction_overflow_after_a_growth_step_is_diverged(small_mesh,
                                                           small_MA):
    # f grows u until it overflows to inf at |u| = 1e3, long before the
    # state's norm reaches DIVERGENCE_NORM
    overflow = KineticsModel(
        "overflow", {},
        f=lambda u, v: np.where(np.abs(u) < 1e3, 1e6 * u, np.inf),
        g=lambda u, v: 0.0 * v,
        jacobian=lambda u, v: Jacobian2x2(1e6, 0.0, 0.0, -1.0),
        steady_state=lambda: SteadyState(0.0, 0.0))
    config = SimulationConfig(model=overflow, d=1.0, gamma=1.0,
                              stop_tol=1e-30, max_time=1.0, amplitude=0.0)
    n = small_mesh.n_vertices
    out = simulate(small_mesh, config, *small_MA,
                   initial=(np.ones(n), np.zeros(n)))
    assert out.status is SimulationStatus.DIVERGED
    assert out.residual_norm is None
    assert len(out.history) > 0
    assert np.abs(out.u).max() >= 1e3 and np.isfinite(out.u).all()


@pytest.mark.parametrize("model", [mi.schnakenberg(), mi.gierer_meinhardt(),
                                   mi.thomas()], ids=lambda m: m.name)
def test_ptc_matrix_is_the_jacobian_of_the_residual(small_mesh, model):
    M = mi.assemble_mass(small_mesh)
    A = mi.assemble_stiffness(small_mesh)
    stepper = ImexStepper(M, A, SimulationConfig(model=model, d=20.0,
                                                 gamma=5.0))
    n = small_mesh.n_vertices
    rng = np.random.default_rng(0)
    state = model.steady_state()
    w = np.concatenate((state.u * (1 + 0.1 * rng.random(n)),
                        state.v * (1 + 0.1 * rng.random(n))))
    e, h = rng.standard_normal(2 * n), 1e-6
    fd = (stepper.residual(w + h * e) - stepper.residual(w - h * e)) / (2 * h)
    # at delta = inf the PTC matrix is -J
    minus_J = stepper.ptc_matrix(w, np.inf)
    assert np.abs(minus_J @ e + fd).max() < 1e-7 * np.abs(fd).max()


def test_switch_rule_waits_for_rise_then_fall():
    rule = SwitchRule()
    # noise decay with bumps below the rise factor never arms the rule
    decay = [1.0, 0.5, 0.2, 0.9, 0.1, 0.05, 0.3, 0.01]
    assert not any(rule(x) for x in decay)
    # growth to a peak, then the first value 10x below the peak fires it
    fired = [rule(x) for x in (0.2, 5.0, 8.0, 2.0, 0.81, 0.79)]
    assert fired == [False] * 5 + [True]


@pytest.fixture(scope="module")
def growth():
    """A 2:1 rectangle with its first nonzero mode isolated: one excited
    mode, so the grown state is one steady state, not a family."""
    mesh = mi.generate_rectangle(2.0, 1.0, 12, 6)
    M, A = mi.assemble_mass(mesh), mi.assemble_stiffness(mesh)
    model = mi.schnakenberg()
    state = model.steady_state()
    spectrum = smallest_eigenpairs(A, M, count=6, tol=1e-9, seed=0)
    result = isolate_mode(spectrum.eigenvalues, 1,
                          model.jacobian(state.u, state.v))
    assert result.status is IsolationStatus.UNIQUE
    config = SimulationConfig(model=model, d=result.d, gamma=result.gamma,
                              tau=1e-2, seed=1)
    return mesh, M, A, spectrum, config


def test_growth_rate_bounds_the_rectangle_spectrum(growth):
    mesh, M, A, spectrum, config = growth
    stepper = ImexStepper(M, A, config)
    state = config.model.steady_state()
    J = config.model.jacobian(state.u, state.v)
    # every eigenvalue of the 2:1 rectangle, and the Lanczos ones
    lam = np.concatenate((dense_generalized_eig(A, M).eigenvalues,
                          spectrum.eigenvalues))
    sigma = growth_rate(J, config.d, config.gamma, np.maximum(lam, 0.0))
    assert np.all(stepper.sigma_max >= sigma)
    assert sigma.max() > 0           # the isolated mode 1 grows
    assert stepper.growth_tau * stepper.sigma_max == pytest.approx(
        simulator.GROWTH_STEP)


def _imex_reference(mesh, M, A, config):
    """The fixed-tau loop alone, run to the same stop test."""
    stepper = ImexStepper(M, A, config)
    imex = SpdSolver(stepper.M2 / config.tau + stepper.D,
                     rtol=simulator.SOLVER_RTOL)
    w = np.concatenate(initial_condition(mesh, config.model.steady_state(),
                                         config.amplitude, config.seed))
    for step in range(1, int(round(config.max_time / config.tau)) + 1):
        dw = imex.solve(stepper.residual(w))
        du, dv = np.split(dw / config.tau, 2)
        deriv = np.sqrt(du @ (M @ du)) + np.sqrt(dv @ (M @ dv))
        w = w + dw
        if deriv < config.stop_tol:
            return (*np.split(w, 2), step * config.tau)
    raise AssertionError("reference loop did not converge")


def test_noise_decay_does_not_switch(growth):
    mesh, M, A, _, config = growth
    # the norm bottoms out near t = 1.2 and is not 10x above that until t = 6
    early = SimulationConfig(**{**config.__dict__, "max_time": 5.0})
    out = simulate(mesh, early, M=M, A=A)
    tau_g = ImexStepper(M, A, early).growth_tau
    assert out.status is SimulationStatus.MAX_TIME
    # the first whole growth step at or past max_time
    assert out.ptc_steps == 0
    assert out.elapsed == math.ceil(5.0 / tau_g) * tau_g


def test_ptc_finish_matches_imex_reference(growth, monkeypatch):
    mesh, M, A, spectrum, config = growth
    # a budget of 0 steps stalls the march at its first step after the
    # switch, so PTC finishes from the switch state
    monkeypatch.setattr(simulator, "STALL_BUDGET", 0)
    out = simulate(mesh, config, M=M, A=A)
    u_ref, v_ref, t_ref = _imex_reference(mesh, M, A, config)
    assert out.status is SimulationStatus.CONVERGED
    assert out.ptc_steps > 0 and out.elapsed < t_ref
    assert out.history[-1][0] == pytest.approx(out.elapsed)
    assert out.history[-1][1] < config.stop_tol
    assert out.residual_norm < 1e-6
    # measured: 8.3e-5 in u and 3.4e-5 in v; the pattern spans 0.91 in u
    assert np.abs(out.u - u_ref).max() < 3e-4
    assert np.abs(out.v - v_ref).max() < 3e-4
    # the dominant computed mode, out of every non-constant one
    modes = range(1, len(spectrum))
    report = match_pattern(out.u, spectrum, M, modes)
    ref = match_pattern(u_ref, spectrum, M, modes)
    assert report.best_index == ref.best_index == 1
    assert report.correlation == pytest.approx(ref.correlation, abs=1e-6)


@pytest.fixture(scope="module")
def stall():
    """configs/sphere_l2.yaml: the five-fold l = 2 cluster on icosphere(2).
    The pattern's near-neutral rotations slow the growth march after the
    switch until it stalls, so PTC finishes the run."""
    mesh = mi.generate_icosphere(2)
    M, A = mi.assemble_mass(mesh), mi.assemble_stiffness(mesh)
    model = mi.schnakenberg()
    state = model.steady_state()
    spectrum = smallest_eigenpairs(A, M, count=12, tol=1e-9, seed=0)
    result = isolate_mode(spectrum.eigenvalues, 4,
                          model.jacobian(state.u, state.v))
    assert result.excited_indices == (4, 5, 6, 7, 8)
    config = SimulationConfig(model=model, d=result.d, gamma=result.gamma,
                              seed=1)
    return mesh, M, A, config


def _stalls(monkeypatch):
    """The history lengths at which `simulate` found the march stalled."""
    lengths = []
    stalled = simulator._stalled

    def spy(history, stop_tol, steps_left):
        if stalled(history, stop_tol, steps_left):
            lengths.append(len(history))
            return True
        return False
    monkeypatch.setattr(simulator, "_stalled", spy)
    return lengths


def _counted_solvers(monkeypatch):
    """SpdSolver factorizations and solves made from now on."""
    counts = {"factor": 0, "solve": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SpdSolver, "__init__",
                        counted("factor", SpdSolver.__init__))
    monkeypatch.setattr(SpdSolver, "solve", counted("solve", SpdSolver.solve))
    return counts


def test_one_solve_per_growth_or_ptc_step(stall, monkeypatch):
    mesh, M, A, config = stall
    stalls = _stalls(monkeypatch)
    counts = _counted_solvers(monkeypatch)
    out = simulate(mesh, config, M=M, A=A)
    assert out.status is SimulationStatus.CONVERGED and out.ptc_steps > 0
    growth_steps = stalls[0]     # every growth step up to the stall
    # one growth matrix (no shortened last step) and one per PTC step
    assert counts == {"factor": 1 + out.ptc_steps,
                      "solve": growth_steps + out.ptc_steps}
    # the last norm is the returned state's own
    stepper = ImexStepper(M, A, config)
    w = np.concatenate((out.u, out.v))
    assert out.history[-1][1] == stepper.norms(w, stepper.residual(w))[0]


def test_ptc_finish_drops_the_march_after_the_switch(stall, monkeypatch):
    mesh, M, A, config = stall
    stalls = _stalls(monkeypatch)
    out = simulate(mesh, config, M=M, A=A)
    assert out.status is SimulationStatus.CONVERGED and out.ptc_steps > 0
    march = out.history[:-1]
    # the march went on past the switch before it stalled ...
    assert stalls == [stalls[0]] and stalls[0] > len(march)
    # ... and the history ends at the switch, plus PTC's final check
    rule = SwitchRule()
    fired = [rule(norm) for _, norm in march]
    assert fired.index(True) == len(march) - 1
    tau_g = ImexStepper(M, A, config).growth_tau
    assert out.history[-1][0] == out.elapsed
    assert out.elapsed == pytest.approx(march[-1][0] + tau_g)


def test_ptc_finish_is_stamped_on_the_growth_grid(stall):
    mesh, M, A, config = stall
    out = simulate(mesh, config, M=M, A=A)
    assert out.status is SimulationStatus.CONVERGED and out.ptc_steps > 0
    tau_g = ImexStepper(M, A, config).growth_tau
    times = [t for t, _ in out.history]
    # every row at k tau_g: the march's rows up to the switch row, then
    # the PTC finish one growth step after it
    assert times == [k * tau_g for k in range(1, len(times) + 1)]
    assert out.elapsed == times[-1]


def test_tau_sets_nothing_where_a_mode_grows(stall):
    mesh, M, A, config = stall
    fine, coarse = (simulate(mesh, SimulationConfig(**{**config.__dict__,
                                                       "tau": tau}),
                             M=M, A=A) for tau in (1e-3, 1e-2))
    assert fine.status is coarse.status is SimulationStatus.CONVERGED
    assert fine.ptc_steps == coarse.ptc_steps > 0
    assert np.array_equal(fine.u, coarse.u)
    assert np.array_equal(fine.v, coarse.v)
    assert fine.elapsed == coarse.elapsed
    assert fine.history == coarse.history


def test_refined_sphere_ends_at_max_time_on_a_whole_step():
    # configs/sphere_l2.yaml on icosphere(4) at seed 2: PTC is abandoned
    # after 5 steps and the march hovers at a derivative norm of 1.0765e-4,
    # just above stop_tol, to the end.  Only a last step shortened to end
    # at max_time (0.204 for tau_g 0.247) takes it below, to 9.79e-5.
    mesh = mi.generate_icosphere(4)
    M, A = mi.assemble_mass(mesh), mi.assemble_stiffness(mesh)
    model = mi.schnakenberg()
    state = model.steady_state()
    spectrum = smallest_eigenpairs(A, M, count=12, tol=1e-9, seed=0)
    result = isolate_mode(spectrum.eigenvalues, 4,
                          model.jacobian(state.u, state.v))
    assert result.excited_indices == (4, 5, 6, 7, 8)
    config = SimulationConfig(model=model, d=result.d, gamma=result.gamma,
                              seed=2)
    out = simulate(mesh, config, M=M, A=A)
    tau_g = ImexStepper(M, A, config).growth_tau
    steps = math.ceil(config.max_time / tau_g)
    assert out.status is SimulationStatus.MAX_TIME and out.ptc_steps == 5
    assert len(out.history) == steps
    assert out.elapsed == out.history[-1][0] == steps * tau_g
    assert config.max_time < out.elapsed < config.max_time + tau_g
    assert config.stop_tol < out.history[-1][1] < 1.1 * config.stop_tol


def test_stall_rule_on_norm_histories():
    stop_tol = 1e-4

    def stalls(ratios, steps_left=np.inf):
        """_stalled after each norm of a history that starts at 1e-2 and
        falls by these ratios, until the norm is below stop_tol."""
        norms = [1e-2]
        for r in ratios:
            if norms[-1] < stop_tol:
                break
            norms.append(norms[-1] * r)
        history = [(float(k), x) for k, x in enumerate(norms)]
        return [simulator._stalled(history[:k], stop_tol, steps_left)
                for k in range(simulator.STALL_WINDOW, len(history) + 1)
                if history[k - 1][1] >= stop_tol]

    # the square's steady 0.89 per step reaches stop_tol in 40 steps
    assert not any(stalls([0.89] * 100))
    # the tubes' cycle of ratios, one of them a rise (grow dumbbell seed 3)
    assert not any(stalls([0.25, 0.55, 0.75] * 10))
    assert not any(stalls([0.75, 0.25, 0.55, 1.004, 0.488, 0.229, 0.929]))
    # no contraction, or a growing norm (disk_radial's ring: 1.072)
    assert all(stalls([1.0] * 5)) and all(stalls([1.072] * 5))
    # a slow contraction that needs more than the budget (dumbbell_explicit)
    assert all(stalls([0.97] * 5))
    # ... or than the steps left before max_time
    assert all(stalls([0.89] * 5, steps_left=10))


def _march_reference(mesh, M, A, config):
    """The growth march alone, without PTC: it stops at the first
    derivative norm below stop_tol after `SwitchRule` has fired."""
    stepper = ImexStepper(M, A, config)
    growth = stepper.growth_solver()
    w = np.concatenate(initial_condition(mesh, config.model.steady_state(),
                                         config.amplitude, config.seed))
    rule, fired = SwitchRule(), False
    for step in range(1, int(config.max_time / stepper.growth_tau)):
        w = w + growth.solve(stepper.residual(w))
        deriv, _ = stepper.norms(w, stepper.residual(w))
        if fired and deriv < config.stop_tol:
            return (*np.split(w, 2), step * stepper.growth_tau)
        fired = fired or rule(deriv)
    raise AssertionError("reference march did not converge")


def test_growth_converges_by_the_march_alone(growth, monkeypatch):
    mesh, M, A, _, config = growth
    counts = _counted_solvers(monkeypatch)
    out = simulate(mesh, config, M=M, A=A)
    assert out.status is SimulationStatus.CONVERGED and out.ptc_steps == 0
    assert counts["factor"] == 1
    u_ref, v_ref, t_ref = _march_reference(mesh, M, A, config)
    assert out.elapsed == pytest.approx(t_ref)
    assert np.abs(out.u - u_ref).max() < 1e-12
    assert np.abs(out.v - v_ref).max() < 1e-12


def test_ptc_finishes_a_march_that_max_time_would_cut(growth):
    mesh, M, A, _, config = growth
    tau_g = ImexStepper(M, A, config).growth_tau
    rule = SwitchRule()
    full = simulate(mesh, config, M=M, A=A)
    t_switch = next(t for t, norm in full.history if rule(norm))
    # the march alone needs more than the 2.5 steps left after the switch
    assert full.elapsed > t_switch + 2.5 * tau_g
    short = SimulationConfig(**{**config.__dict__,
                                "max_time": t_switch + 2.5 * tau_g})
    out = simulate(mesh, short, M=M, A=A)
    assert out.status is SimulationStatus.CONVERGED and out.ptc_steps > 0
    assert out.elapsed == pytest.approx(t_switch + tau_g)


@pytest.mark.parametrize("amplitude", [1e-3, 1e-4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_perturbation_grows_before_stopping(growth, amplitude, seed):
    # Next to the unstable uniform state the derivative norm can dip below
    # stop_tol before the target mode has grown; that is no steady state.
    mesh, M, A, spectrum, config = growth
    small = SimulationConfig(**{**config.__dict__, "amplitude": amplitude,
                                "seed": seed})
    out = simulate(mesh, small, M=M, A=A)
    assert out.status is SimulationStatus.CONVERGED
    assert np.ptp(out.u) > 0.5     # the grown pattern spans 0.91 in u
    report = match_pattern(out.u, spectrum, M, (1,))
    assert report.correlation > 0.99


def test_max_time_within_the_first_growth_step(growth, monkeypatch):
    mesh, M, A, _, config = growth
    tau_g = ImexStepper(M, A, config).growth_tau
    counts = _counted_solvers(monkeypatch)
    for steps in (0.4, 2.5):
        counts.update(factor=0, solve=0)
        short = SimulationConfig(**{**config.__dict__,
                                    "max_time": steps * tau_g})
        out = simulate(mesh, short, M=M, A=A)
        # whole steps only, up to the first at or past max_time, all on
        # the one growth factorization
        whole = math.ceil(steps)
        assert out.status is SimulationStatus.MAX_TIME
        assert out.elapsed == whole * tau_g
        assert [t for t, _ in out.history] == [
            k * tau_g for k in range(1, whole + 1)]
        assert counts == {"factor": 1, "solve": whole}


def _singular_ptc_matrix(original):
    """ptc_matrix, singular everywhere but at the growth matrix's w*."""
    def ptc_matrix(self, w, delta):
        if w is self.w_star:
            return original(self, w, delta)
        return sp.csr_matrix((len(w), len(w)))
    return ptc_matrix


@pytest.mark.parametrize("failure", ["solve", "step_cap", "growth"])
def test_ptc_failure_falls_back_to_imex(growth, monkeypatch, failure):
    mesh, M, A, _, config = growth
    monkeypatch.setattr(simulator, "STALL_BUDGET", 0)
    if failure == "solve":
        monkeypatch.setattr(ImexStepper, "ptc_matrix",
                            _singular_ptc_matrix(ImexStepper.ptc_matrix))
    elif failure == "step_cap":
        monkeypatch.setattr(simulator, "PTC_MAX_STEPS", 1)
    else:
        monkeypatch.setattr(simulator, "PTC_MAX_GROWTH", 0.0)
    out = simulate(mesh, config, M=M, A=A)
    u_ref, v_ref, t_ref = _march_reference(mesh, M, A, config)
    # PTC was tried once, from the switch state, then the growth march went
    # on from the step after the switch and stopped by its own rule, where
    # the march alone stops
    assert out.ptc_steps == 1
    assert out.status is SimulationStatus.CONVERGED
    assert out.elapsed == pytest.approx(t_ref)
    assert np.abs(out.u - u_ref).max() < 1e-12
    assert np.abs(out.v - v_ref).max() < 1e-12
    # ... at the grown pattern, not the uniform state
    assert np.ptp(out.u) > 0.5


def test_ptc_finish_refuses_a_return_to_the_uniform_state(monkeypatch):
    # configs/square_mode1.yaml with Thomas kinetics: at this growth step
    # PTC converges onto w* itself (finish/switch distance 1.2e-12,
    # residual 7.8e-12 at t 5.257) and used to be reported converged
    monkeypatch.setattr(simulator, "GROWTH_STEP", 0.01)
    mesh = mi.generate_rectangle(1.0, 1.0, 32, 32)
    M, A = mi.assemble_mass(mesh), mi.assemble_stiffness(mesh)
    model = mi.thomas()
    state = model.steady_state()
    spectrum = smallest_eigenpairs(A, M, count=8, seed=0)
    result = isolate_mode(spectrum.eigenvalues, 1,
                          model.jacobian(state.u, state.v))
    config = SimulationConfig(model=model, d=result.d, gamma=result.gamma,
                              seed=1, max_time=6.0)
    out = simulate(mesh, config, M=M, A=A)
    tau_g = ImexStepper(M, A, config).growth_tau
    # refused, the growth march goes on and ends at max_time
    assert out.ptc_steps > 0
    assert out.status is SimulationStatus.MAX_TIME
    assert out.elapsed == math.ceil(6.0 / tau_g) * tau_g
    assert np.ptp(out.u) > 1.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_small_pattern_converges_without_a_tenfold_rise():
    # The target mode 10 grows to a small pattern: the derivative norm
    # falls from the first step, so SwitchRule never arms and no stop
    # counts.  The run settles on the pattern below stop_tol (last norm
    # 3.9e-6, correlation 0.99998 with mode 10) and ends at max_time.
    mesh = mi.generate_rectangle(2.0, 1.0, 48, 24)
    M, A = mi.assemble_mass(mesh), mi.assemble_stiffness(mesh)
    model = mi.schnakenberg()
    state = model.steady_state()
    spectrum = smallest_eigenpairs(A, M, count=12, seed=0)
    result = isolate_mode(spectrum.eigenvalues, 10,
                          model.jacobian(state.u, state.v))
    assert result.status is IsolationStatus.UNIQUE
    config = SimulationConfig(model=model, d=result.d, gamma=result.gamma,
                              seed=1)
    out = simulate(mesh, config, M=M, A=A)
    assert out.status is SimulationStatus.CONVERGED
