"""Finite element time stepping for the nondimensional reaction-diffusion
system: IMEX growth, finished by pseudo-transient continuation.

The growth phase is IMEX: diffusion implicit, reactions explicit and
evaluated nodally (the Lagrange interpolant of f and g), giving two
constant SPD systems (M/tau + A) and (M/tau + d A).  Each is factored once
by `SpdSolver` and the factors are reused on every step.

Once the run's own derivative history shows a grown pattern (see
`SwitchRule`), `simulate` finishes with pseudo-transient continuation
(PTC) on the full 2n system F(u, v) = [-A u + gamma M f, -d A v + gamma M g].
Each PTC step solves (M2/delta - J) Delta = F, where M2 = diag(M, M) and
J is the Jacobian of F built from the model's nodal Jacobian; delta
follows switched evolution relaxation, delta <- delta ||F_old|| / ||F_new||
(Kelley & Keyes, SINUM 35, 1998).  After each PTC step one IMEX step from
the PTC state applies the unchanged stop test, and the run returns that
post-IMEX state.  When PTC fails (a failed solve, the step cap, or ||F||
growing), the fixed-tau loop resumes from the switch state.  Every solve
is residual checked.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .kinetics import KineticsModel, SteadyState
from .mesh import Mesh
from .solvers import LinearSolveError, SpdSolver

MAX_STABLE_TAU = 1e-2      # explicit reaction terms destabilize above this
DIVERGENCE_NORM = 1e8
SOLVER_RTOL = 1e-10        # ||b - K x|| <= SOLVER_RTOL ||b|| on every solve

# The switch arms once the derivative norm has risen SWITCH_RISE times
# above its running minimum (the noise has decayed and a mode grows) and
# fires once it has fallen SWITCH_FALL times below its later peak (the
# pattern has formed).  A fall factor of 2 switched the tau = 0.01 square
# (seed 1) at t = 1.29 and moved its match correlation from 0.999567 to
# 0.999697; 10 keeps every grow config's correlation within 5.5e-8 of the
# pure-IMEX run's (seeds 1-5).
SWITCH_RISE = 10.0
SWITCH_FALL = 10.0
# Starting pseudo-time step: 1 took 3-5 PTC steps per grow config, tau
# (0.01) took 66-178.
PTC_DELTA0 = 1.0
# The l = 2 sphere, whose near-neutral rotation slows PTC most, took
# 23-45 steps (seeds 1-5).
PTC_MAX_STEPS = 200
# ||F|| above this multiple of its value at the switch abandons PTC; the
# largest ratio measured on the shipped and grow configs was 1.17.
PTC_MAX_GROWTH = 10.0


class SimulationStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_TIME = "max_time"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class SimulationConfig:
    model: KineticsModel
    d: float
    gamma: float
    tau: float = 1e-3
    stop_tol: float = 1e-4
    max_time: float = 100.0
    seed: int = 0
    amplitude: float = 0.01
    snapshot_stride: int = 100

    def __post_init__(self) -> None:
        if self.tau <= 0 or self.tau > MAX_STABLE_TAU:
            raise ValueError(f"tau must be in (0, {MAX_STABLE_TAU}]")
        if min(self.d, self.gamma, self.stop_tol, self.max_time) <= 0:
            raise ValueError("d, gamma, stop_tol and max_time must be "
                             "positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")


@dataclass(frozen=True)
class SimulationOutcome:
    u: np.ndarray
    v: np.ndarray
    elapsed: float             # IMEX time reached; PTC adds none
    history: tuple[tuple[float, float], ...]  # (t, derivative norm)
    status: SimulationStatus
    ptc_steps: int = 0         # PTC steps taken, an abandoned attempt too
    residual_norm: float | None = None   # ||F(u, v)||_2; None if diverged


def initial_condition(mesh: Mesh, state: SteadyState, amplitude: float,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-noise perturbation of the steady state, deterministic per
    seed: value = (s - amplitude/2) + amplitude * U(0, 1) per vertex."""
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    rng = np.random.default_rng(seed)
    n = mesh.n_vertices
    u = (state.u - amplitude / 2.0) + amplitude * rng.random(n)
    v = (state.v - amplitude / 2.0) + amplitude * rng.random(n)
    return u, v


class SwitchRule:
    """Decides, one derivative norm at a time, when the growth is done:
    armed once a norm exceeds SWITCH_RISE times the running minimum, it
    fires at the first norm SWITCH_FALL times below the peak since."""

    def __init__(self) -> None:
        self.low = math.inf
        self.peak: float | None = None

    def __call__(self, deriv: float) -> bool:
        if self.peak is None:
            self.low = min(self.low, deriv)
            if deriv > SWITCH_RISE * self.low:
                self.peak = deriv
            return False
        self.peak = max(self.peak, deriv)
        return deriv < self.peak / SWITCH_FALL


class ImexStepper:
    """Prebuilt operators for repeated IMEX steps on a fixed mesh, and the
    residual F and PTC matrix of the same system."""

    def __init__(self, M: sp.spmatrix, A: sp.spmatrix,
                 config: SimulationConfig):
        self.M = M.tocsr()
        self.A = A.tocsr()
        self.config = config
        tau = config.tau
        self.solver_u = SpdSolver((M / tau + A).tocsr(), rtol=SOLVER_RTOL)
        self.solver_v = SpdSolver((M / tau + config.d * A).tocsr(),
                                  rtol=SOLVER_RTOL)

    def step(self, u: np.ndarray,
             v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        fu = np.asarray(cfg.model.f(u, v), dtype=float)
        gv = np.asarray(cfg.model.g(u, v), dtype=float)
        # M (gamma f + u/tau) and M (gamma g + v/tau) in one product.
        rhs = self.M @ np.column_stack((cfg.gamma * fu + u / cfg.tau,
                                        cfg.gamma * gv + v / cfg.tau))
        u_new = self.solver_u.solve(rhs[:, 0])
        v_new = self.solver_v.solve(rhs[:, 1])
        return u_new, v_new

    def norms(self, u: np.ndarray, v: np.ndarray, u_new: np.ndarray,
              v_new: np.ndarray) -> tuple[float, float]:
        """The step's derivative norm m_norm(du/dt) + m_norm(dv/dt), and
        the larger of m_norm(u_new) and m_norm(v_new), from one product
        with M."""
        tau = self.config.tau
        X = np.column_stack(((u_new - u) / tau, (v_new - v) / tau,
                             u_new, v_new))
        norms = np.sqrt(np.maximum(np.einsum("ij,ij->j", X, self.M @ X),
                                   0.0))
        return float(norms[0] + norms[1]), float(max(norms[2], norms[3]))

    def residual(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """F(u, v) = [-A u + gamma M f, -d A v + gamma M g], stacked."""
        cfg = self.config
        fg = self.M @ np.column_stack((cfg.model.f(u, v), cfg.model.g(u, v)))
        return np.concatenate((cfg.gamma * fg[:, 0] - self.A @ u,
                               cfg.gamma * fg[:, 1] - cfg.d * (self.A @ v)))

    def ptc_matrix(self, u: np.ndarray, v: np.ndarray,
                   delta: float) -> sp.csr_matrix:
        """M2/delta - J, with J = dF/d(u, v) from the nodal Jacobian."""
        cfg = self.config
        jac = cfg.model.jacobian(u, v)
        M, n = self.M, len(u)

        def gamma_m(x) -> sp.spmatrix:  # gamma M diag(x), x nodal or scalar
            return M @ sp.diags(cfg.gamma * np.broadcast_to(
                np.asarray(x, dtype=float), (n,)))

        return sp.bmat([
            [M / delta + self.A - gamma_m(jac.f_u), -gamma_m(jac.f_v)],
            [-gamma_m(jac.g_u), M / delta + cfg.d * self.A - gamma_m(jac.g_v)],
        ], format="csr")


def _ptc_finish(stepper: ImexStepper, u: np.ndarray, v: np.ndarray):
    """PTC from the switch state (u, v).

    Returns (steps taken, result): result is (u, v, derivative norm) of
    the first post-IMEX state that passes the stop test, or None when PTC
    failed and the caller should go on from (u, v) with IMEX.
    """
    n = len(u)
    w = np.concatenate((u, v))
    F = stepper.residual(u, v)
    f_norm = f_switch = np.linalg.norm(F)
    delta = PTC_DELTA0
    for k in range(1, PTC_MAX_STEPS + 1):
        try:
            solver = SpdSolver(stepper.ptc_matrix(w[:n], w[n:], delta),
                               rtol=SOLVER_RTOL)
            w = w + solver.solve(F)
        except LinearSolveError:
            return k, None
        F = stepper.residual(w[:n], w[n:])
        f_new = np.linalg.norm(F)
        if not f_new <= PTC_MAX_GROWTH * f_switch:  # also catches nan
            return k, None
        u_new, v_new = stepper.step(w[:n], w[n:])
        deriv, _ = stepper.norms(w[:n], w[n:], u_new, v_new)
        if deriv < stepper.config.stop_tol:
            return k, (u_new, v_new, deriv)
        delta *= f_norm / f_new
        f_norm = f_new
    return PTC_MAX_STEPS, None


def simulate(mesh: Mesh, config: SimulationConfig,
             M: sp.spmatrix | None = None, A: sp.spmatrix | None = None,
             initial: tuple[np.ndarray, np.ndarray] | None = None,
             snapshot_callback=None) -> SimulationOutcome:
    """Run to the inhomogeneous steady state or to max_time.

    Stops when m_norm(M, du/dt) + m_norm(M, dv/dt) < stop_tol for an IMEX
    step, taken either in the fixed-tau loop or from a PTC state.  The
    derivative history is recorded every snapshot_stride IMEX steps (plus
    the final step, and the final PTC check); snapshot_callback(step, t,
    u, v), when given, is invoked on the same stride.
    """
    from .fem import assemble_mass, assemble_stiffness

    if M is None:
        M = assemble_mass(mesh)
    if A is None:
        A = assemble_stiffness(mesh)
    if initial is None:
        state = config.model.steady_state()
        u, v = initial_condition(mesh, state, config.amplitude, config.seed)
    else:
        u, v = (np.asarray(initial[0], dtype=float),
                np.asarray(initial[1], dtype=float))

    stepper = ImexStepper(M, A, config)
    switch: SwitchRule | None = SwitchRule()
    history: list[tuple[float, float]] = []
    n_steps = int(round(config.max_time / config.tau))
    t = 0.0
    ptc_steps = 0
    status = SimulationStatus.MAX_TIME
    for step in range(1, n_steps + 1):
        u_new, v_new = stepper.step(u, v)
        t = step * config.tau
        if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
            status = SimulationStatus.DIVERGED
            u, v = u_new, v_new
            break
        deriv, size = stepper.norms(u, v, u_new, v_new)
        u, v = u_new, v_new
        if size > DIVERGENCE_NORM:
            status = SimulationStatus.DIVERGED
            history.append((t, deriv))
            break
        if step % config.snapshot_stride == 0 or step == n_steps:
            history.append((t, deriv))
            if snapshot_callback is not None:
                snapshot_callback(step, t, u, v)
        if deriv < config.stop_tol:
            if not history or history[-1][0] != t:
                history.append((t, deriv))
            status = SimulationStatus.CONVERGED
            break
        if switch is not None and switch(deriv) and step < n_steps:
            switch = None   # one attempt; a failed one resumes IMEX here
            ptc_steps, finished = _ptc_finish(stepper, u, v)
            if finished is not None:
                u, v, deriv = finished
                t = (step + 1) * config.tau
                history.append((t, deriv))
                status = SimulationStatus.CONVERGED
                break
    residual_norm = None
    if status is not SimulationStatus.DIVERGED:
        residual_norm = float(np.linalg.norm(stepper.residual(u, v)))
    return SimulationOutcome(u=u, v=v, elapsed=t, history=tuple(history),
                             status=status, ptc_steps=ptc_steps,
                             residual_norm=residual_norm)
