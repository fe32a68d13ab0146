"""IMEX finite element time stepping for the nondimensional
reaction-diffusion system.

Diffusion is implicit, reactions explicit and evaluated nodally
(the Lagrange interpolant of f and g), giving two constant SPD systems
(M/tau + A) and (M/tau + d A).  Each is factored once by `SpdSolver` and
the factors are reused on every step; every solve is residual checked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .kinetics import KineticsModel, SteadyState
from .mesh import Mesh
from .solvers import SpdSolver

MAX_STABLE_TAU = 1e-2      # explicit reaction terms destabilize above this
DIVERGENCE_NORM = 1e8
SOLVER_RTOL = 1e-10        # ||b - K x|| <= SOLVER_RTOL ||b|| on every solve


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
    elapsed: float
    history: tuple[tuple[float, float], ...]  # (t, derivative norm)
    status: SimulationStatus


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


class ImexStepper:
    """Prebuilt operators for repeated IMEX steps on a fixed mesh."""

    def __init__(self, M: sp.spmatrix, A: sp.spmatrix,
                 config: SimulationConfig):
        self.M = M.tocsr()
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


def simulate(mesh: Mesh, config: SimulationConfig,
             M: sp.spmatrix | None = None, A: sp.spmatrix | None = None,
             initial: tuple[np.ndarray, np.ndarray] | None = None,
             snapshot_callback=None) -> SimulationOutcome:
    """Run to the inhomogeneous steady state or to max_time.

    Stops when m_norm(M, du/dt) + m_norm(M, dv/dt) < stop_tol.  The
    derivative history is recorded every snapshot_stride steps (plus the
    final step); snapshot_callback(step, t, u, v), when given, is invoked
    on the same stride.
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
    history: list[tuple[float, float]] = []
    n_steps = int(round(config.max_time / config.tau))
    t = 0.0
    status = SimulationStatus.MAX_TIME
    for step in range(1, n_steps + 1):
        u_new, v_new = stepper.step(u, v)
        t = step * config.tau
        if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
            status = SimulationStatus.DIVERGED
            u, v = u_new, v_new
            break
        # M-norms of du/dt, dv/dt, u and v from one product with M.
        X = np.column_stack(((u_new - u) / config.tau,
                             (v_new - v) / config.tau, u_new, v_new))
        norms = np.sqrt(np.maximum(np.einsum("ij,ij->j", X, stepper.M @ X),
                                   0.0))
        deriv = float(norms[0] + norms[1])
        u, v = u_new, v_new
        if norms[2] > DIVERGENCE_NORM or norms[3] > DIVERGENCE_NORM:
            status = SimulationStatus.DIVERGED
            history.append((t, deriv))
            break
        if step % config.snapshot_stride == 0 or step == n_steps:
            history.append((t, deriv))
            if snapshot_callback is not None:
                snapshot_callback(step, t, u, v)
        if deriv < config.stop_tol:
            if history and history[-1][0] != t:
                history.append((t, deriv))
            elif not history:
                history.append((t, deriv))
            status = SimulationStatus.CONVERGED
            break
    return SimulationOutcome(u=u, v=v, elapsed=t, history=tuple(history),
                             status=status)
