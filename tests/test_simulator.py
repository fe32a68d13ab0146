import numpy as np
import pytest

import modeiso as mi
from modeiso.kinetics import Jacobian2x2, KineticsModel, SteadyState
from modeiso.simulator import (ImexStepper, SimulationConfig,
                               SimulationStatus, initial_condition, simulate)

ZERO_KINETICS = KineticsModel("zero", {},
                              f=lambda u, v: 0.0 * u,
                              g=lambda u, v: 0.0 * v,
                              jacobian=lambda u, v: Jacobian2x2(0.0, 0.0,
                                                                0.0, 0.0),
                              steady_state=lambda: SteadyState(1.0, 1.0))


@pytest.fixture(scope="module")
def small_mesh():
    return mi.generate_rectangle(1.0, 1.0, 8, 8)


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
    mass = ones @ (M @ u)
    v = u.copy()
    for _ in range(200):
        u, v = stepper.step(u, v)
        new_mass = ones @ (M @ u)
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
    u, v = u0, v0
    for _ in range(200):
        u, v = stepper.step(u, v)

    # The scheme written out step by step, solved by dense LAPACK.
    tau, gamma = config.tau, config.gamma
    K_u = (M / tau + A).toarray()
    K_v = (M / tau + config.d * A).toarray()
    u_ref, v_ref = u0, v0
    for _ in range(200):
        fu, gv = model.f(u_ref, v_ref), model.g(u_ref, v_ref)
        u_ref, v_ref = (
            np.linalg.solve(K_u, gamma * (M @ fu) + (M @ u_ref) / tau),
            np.linalg.solve(K_v, gamma * (M @ gv) + (M @ v_ref) / tau))

    assert np.abs(u - u0).max() > 1e-4  # the steps did move the state
    assert np.abs(u - u_ref).max() < 1e-8
    assert np.abs(v - v_ref).max() < 1e-8


def test_steady_state_is_fixed_point(small_mesh):
    model = mi.schnakenberg()
    state = model.steady_state()
    config = SimulationConfig(model=model, d=10.0, gamma=20.0, tau=1e-3,
                              stop_tol=1e-16, max_time=0.1, amplitude=0.0)
    n = small_mesh.n_vertices
    out = simulate(small_mesh, config,
                   initial=(np.full(n, state.u), np.full(n, state.v)))
    assert np.abs(out.u - state.u).max() < 1e-10
    assert np.abs(out.v - state.v).max() < 1e-10


def test_stable_regime_returns_to_uniform(small_mesh):
    model = mi.schnakenberg()
    state = model.steady_state()
    config = SimulationConfig(model=model, d=1.0, gamma=20.0, tau=1e-3,
                              stop_tol=1e-6, max_time=50.0, seed=2,
                              amplitude=0.01)
    out = simulate(small_mesh, config)
    assert out.status is SimulationStatus.CONVERGED
    assert np.abs(out.u - state.u).max() < 1e-4
    assert np.abs(out.v - state.v).max() < 1e-4


def test_history_recorded_on_stride(small_mesh):
    config = SimulationConfig(model=ZERO_KINETICS, d=1.0, gamma=1.0,
                              tau=1e-3, stop_tol=1e-30, max_time=0.05,
                              amplitude=0.0, snapshot_stride=10)
    x = small_mesh.vertices[:, 0]
    out = simulate(small_mesh, config, initial=(1.0 + x, 1.0 - x))
    assert out.status is SimulationStatus.MAX_TIME
    times = [t for t, _ in out.history]
    assert times[0] == pytest.approx(0.01)
    assert times[-1] == pytest.approx(0.05)


def test_snapshot_callback_invoked(small_mesh):
    seen = []
    config = SimulationConfig(model=ZERO_KINETICS, d=1.0, gamma=1.0,
                              tau=1e-3, stop_tol=1e-30, max_time=0.03,
                              amplitude=0.0, snapshot_stride=10)
    x = small_mesh.vertices[:, 0]
    simulate(small_mesh, config, initial=(1.0 + x, 1.0 - x),
             snapshot_callback=lambda step, t, u, v: seen.append(step))
    assert seen == [10, 20, 30]


def test_divergence_detected(small_mesh):
    blowup = KineticsModel("blowup", {},
                           f=lambda u, v: 1e6 * u,
                           g=lambda u, v: 1e6 * v,
                           jacobian=lambda u, v: Jacobian2x2(1e6, 0.0,
                                                             0.0, 1e6),
                           steady_state=lambda: SteadyState(0.0, 0.0))
    config = SimulationConfig(model=blowup, d=1.0, gamma=100.0, tau=1e-2,
                              stop_tol=1e-30, max_time=10.0, amplitude=0.0)
    n = small_mesh.n_vertices
    out = simulate(small_mesh, config, initial=(np.ones(n), np.ones(n)))
    assert out.status is SimulationStatus.DIVERGED
