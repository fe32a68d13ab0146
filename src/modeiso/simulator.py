"""Finite element time stepping for the nondimensional reaction-diffusion
system: a linearly implicit growth march, finished by pseudo-transient
continuation where the march stalls.

Both phases carry one stacked state w = (u, v) and take one update form,
w <- w + K^-1 F(w), on the residual F(w) = gamma M2 R(w) - D w.  Here
M2 = diag(M, M), D = diag(A, d A), and R = (f, g) is evaluated nodally
(the Lagrange interpolant of f and g).

The growth march is linearly implicit Euler with
K = M2/tau_g + D - gamma M2 J_R(w*): diffusion and the reactions
linearized at the uniform steady state w* are implicit, the rest of the
reactions explicit.  K is constant, so `SpdSolver` factors it once per
run, and the march takes whole steps only: its grid k tau_g is the run's
one clock.  The step is sized by the dispersion relation: tau_g
|sigma_max| = GROWTH_STEP, where sigma_max is the largest growth rate
over k^2 >= 0 (`kinetics.max_growth_rate`); implicit Euler on a growing
mode needs tau sigma < 1.  When nothing grows, sigma_max < 0 is the
slowest decay rate; when it is 0 there is no rate, and tau_g is tau.

The stop test and `SwitchRule` read the time derivative of the
semi-discrete system M2 w' = F(w), with the mass lumped to
M_L = diag(M 1): the derivative norm ||F_u||_{M_L^-1} + ||F_v||_{M_L^-1}
stands for m_norm(du/dt) + m_norm(dv/dt) and costs no solve, as each
step already has F.  Implicit Euler damps the noise in a step or two,
so this norm can fall below the stop tolerance next to the unstable
uniform state before the target mode has grown.  So while some
wavenumber grows (sigma_max > 0), no stop counts until `SwitchRule` has
fired.  Arming is not enough: grown from a 1e-4 perturbation, the norm
can rise tenfold and still be below the stop tolerance.

Once the run's own derivative history shows a grown pattern (see
`SwitchRule`), the stop test counts, and `simulate` keeps the switch
state and lets the growth march go on.  After each later step it
estimates the march's contraction as the geometric mean ratio of the
last STALL_WINDOW derivative norms.  The march is stalled when that
ratio is >= 1, or when it predicts more steps to the stop tolerance
than STALL_BUDGET or than are left before max_time.  Only then does
`simulate` finish with pseudo-transient continuation (PTC), started from
the saved switch state: K = M2/delta + D - gamma M2 J_R(w), where J_R is
the model's nodal Jacobian of R, factored afresh each step.  delta
follows switched evolution relaxation, delta <- delta ||F_old|| /
||F_new|| (Kelley & Keyes, SINUM 35, 1998).  After each PTC step the
same stop test reads the PTC state's residual, and the run returns that
state, stamped one growth step after the switch.  When PTC fails (a
failed solve, the step cap, or ||F|| growing), or returns to the uniform
state (closer to w* than PTC_MIN_DISTANCE times the switch state), the
growth march goes on from where it stalled, which is where a march
resumed from the switch state would be, and PTC is not tried again.
Every solve is residual checked, so a non-finite F(w), at the initial
state or after a growth step, ends the run as diverged before its solve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .kinetics import (MAX_STABLE_TAU, KineticsModel, SteadyState,
                       max_growth_rate)
from .mesh import Mesh
from .solvers import LinearSolveError, SpdSolver

# tau_g sigma_max for the growth march.  0.2 and 0.3 converged every grow
# config (seeds 1-20) and shipped config (seeds 1-10), 0.35 every shipped
# one; at 0.4 the l = 2 sphere (configs/sphere_l2.yaml) never switched at
# 6 of seeds 1-10 and cycled until max_time (derivative norm 1.07 at
# seed 1).
GROWTH_STEP = 0.3
DIVERGENCE_NORM = 1e8
SOLVER_RTOL = 1e-10        # ||b - K x|| <= SOLVER_RTOL ||b|| on every solve

# The switch arms once the derivative norm has risen SWITCH_RISE times
# above its running minimum (the noise has decayed and a mode grows) and
# fires once it has fallen SWITCH_FALL times below its later peak (the
# pattern has formed).  A fall factor of 2 switched before the pattern had
# formed and moved the match correlation in its fourth digit.
SWITCH_RISE = 10.0
SWITCH_FALL = 10.0
# After the switch the march is stalled, and PTC runs, when the geometric
# mean ratio of its last STALL_WINDOW derivative norms is >= 1 or
# predicts more than STALL_BUDGET steps to stop_tol.  On the march alone
# (seeds 1-3) the predictions stay at 3-9 steps on the tubes and the grow
# sphere and dumbbell, and at 52-55 on the square; all of these reach
# stop_tol.  On sphere_l2 and dumbbell_explicit they rise to 109-5000,
# and on disk_radial the ratio reaches 1.07; the march alone ends at
# max_time on all three.  Three norms ride over the tubes' cycle of
# ratios (about 0.25, 0.55, 0.75, with single rises to 1.004).  The steps
# left before max_time cap the budget: tube_open at seed 10 switches five
# steps before max_time, which its march alone reaches unconverged.
STALL_WINDOW = 3
STALL_BUDGET = 100
# Starting pseudo-time step: 1 takes 2-4 PTC steps on disk_radial, 14 on
# the square at the one seed where its march stalls, and 4 on tube_open
# where max_time cuts its march (seeds 1-10).
PTC_DELTA0 = 1.0
# The l = 2 sphere and the dumbbell pair, whose near-neutral rotations
# slow PTC most, took 18-62 and 16-102 steps (seeds 1-10).
PTC_MAX_STEPS = 200
# ||F|| above this multiple of its value at the switch abandons PTC; the
# largest ratio measured on the shipped and grow configs was 2.23.
PTC_MAX_GROWTH = 10.0
# A PTC result closer to the uniform state w* than this fraction of the
# switch state's distance (M2-norm of w - w*) is refused: PTC has
# returned to w*, not reached the pattern.  The ratio was 0.99-1.024 on
# the shipped and grow configs (seeds 1-2), and 1.2e-12 for Thomas
# kinetics on configs/square_mode1.yaml at GROWTH_STEP 0.01.
PTC_MIN_DISTANCE = 0.1


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

    def __post_init__(self) -> None:
        for name in ("tau", "stop_tol", "max_time", "amplitude", "d",
                     "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.tau <= 0 or self.tau > MAX_STABLE_TAU:
            raise ValueError(f"tau must be in (0, {MAX_STABLE_TAU}]")
        if min(self.d, self.gamma, self.stop_tol, self.max_time) <= 0:
            raise ValueError("d, gamma, stop_tol and max_time must be "
                             "positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")


@dataclass(frozen=True)
class SimulationOutcome:
    u: np.ndarray
    v: np.ndarray
    elapsed: float             # k tau_g; PTC finish: one step past the switch
    # (t, derivative norm) per growth step; after a PTC finish, the steps
    # up to the switch and PTC's final check
    history: tuple[tuple[float, float], ...]
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
    """Prebuilt operators of the stacked system on a fixed mesh: the
    residual F(w), its lumped-mass derivative norm, the growth matrix and
    the PTC matrix."""

    def __init__(self, M: sp.spmatrix, A: sp.spmatrix,
                 config: SimulationConfig):
        self.config = config
        self.M2 = sp.block_diag((M, M), format="csr")
        self.D = sp.block_diag((A, config.d * A), format="csr")
        self.lumped = np.asarray(M.sum(axis=1)).ravel()     # M_L = M 1
        state = config.model.steady_state()
        self.w_star = np.repeat((state.u, state.v), M.shape[0])
        self.sigma_max = max_growth_rate(
            config.model.jacobian(state.u, state.v), config.d, config.gamma)
        self.growth_tau = (GROWTH_STEP / abs(self.sigma_max)
                           if self.sigma_max else config.tau)

    def growth_solver(self) -> SpdSolver:
        """The growth matrix M2/tau_g + D - gamma M2 J_R(w*), factored."""
        return SpdSolver(self.ptc_matrix(self.w_star, self.growth_tau),
                         rtol=SOLVER_RTOL)

    def residual(self, w: np.ndarray) -> np.ndarray:
        """F(w) = gamma M2 R(w) - D w, with R = (f, g) nodal."""
        model, n = self.config.model, len(w) // 2
        u, v = w[:n], w[n:]
        R = np.empty_like(w)
        R[:n], R[n:] = model.f(u, v), model.g(u, v)
        return self.config.gamma * (self.M2 @ R) - self.D @ w

    def norms(self, w: np.ndarray, F: np.ndarray) -> tuple[float, float]:
        """For the state w with residual F = F(w): the derivative norm
        sqrt(F_u^T M_L^-1 F_u) + sqrt(F_v^T M_L^-1 F_v), and the larger of
        m_norm(u) and m_norm(v)."""
        deriv = np.sqrt((F.reshape(2, -1) ** 2 / self.lumped).sum(axis=1))
        size = (w * (self.M2 @ w)).reshape(2, -1).sum(axis=1)
        return float(deriv.sum()), math.sqrt(max(size.max(), 0.0))

    def distance(self, w: np.ndarray) -> float:
        """The M2-norm of w - w*, the distance from the uniform state."""
        e = w - self.w_star
        return math.sqrt(max(e @ (self.M2 @ e), 0.0))

    def ptc_matrix(self, w: np.ndarray, delta: float) -> sp.csr_matrix:
        """M2/delta + D - gamma M2 J_R(w), with J_R the nodal Jacobian of R
        as a 2x2 block of diagonals: f_u | g_v on the main diagonal, f_v
        and g_u n above and below it."""
        n = len(w) // 2
        jac = self.config.model.jacobian(w[:n], w[n:])
        f_u, f_v, g_u, g_v = (np.broadcast_to(x, (n,)) for x in
                              (jac.f_u, jac.f_v, jac.g_u, jac.g_v))
        J_R = sp.diags([np.concatenate([f_u, g_v]), f_v, g_u], [0, n, -n],
                       dtype=float)
        return (self.M2 / delta + self.D
                - self.config.gamma * (self.M2 @ J_R)).tocsr()


def _stalled(history: list[tuple[float, float]], stop_tol: float,
             steps_left: float) -> bool:
    """Whether the growth march, by the contraction of its last
    STALL_WINDOW derivative norms in history, misses stop_tol: their
    geometric mean ratio is >= 1, or predicts that reaching stop_tol takes
    more steps than STALL_BUDGET or than the steps_left before max_time."""
    first, last = history[-STALL_WINDOW][1], history[-1][1]
    rate = (last / first) ** (1.0 / (STALL_WINDOW - 1))
    return rate >= 1.0 or math.log(stop_tol / last) / math.log(rate) \
        > min(STALL_BUDGET, steps_left)


def _ptc_finish(stepper: ImexStepper, w: np.ndarray):
    """PTC from the switch state w.

    Returns (steps taken, result): result is (w, derivative norm) of the
    first PTC state that passes the stop test, or None when PTC failed
    and the caller's growth march should go on.
    A state that passes the stop test back at the uniform state, closer
    to w* than PTC_MIN_DISTANCE times the switch state, is a failure.
    """
    min_distance = PTC_MIN_DISTANCE * stepper.distance(w)
    F = stepper.residual(w)
    f_norm = f_switch = np.linalg.norm(F)
    delta = PTC_DELTA0
    for k in range(1, PTC_MAX_STEPS + 1):
        try:
            solver = SpdSolver(stepper.ptc_matrix(w, delta), rtol=SOLVER_RTOL)
            w = w + solver.solve(F)
        except LinearSolveError:
            return k, None
        F = stepper.residual(w)
        f_new = np.linalg.norm(F)
        if not f_new <= PTC_MAX_GROWTH * f_switch:  # also catches nan
            return k, None
        deriv, _ = stepper.norms(w, F)
        if deriv < stepper.config.stop_tol:
            if stepper.distance(w) < min_distance:
                return k, None
            return k, (w, deriv)
        delta *= f_norm / f_new
        f_norm = f_new
    return PTC_MAX_STEPS, None


def simulate(mesh: Mesh, config: SimulationConfig, M: sp.spmatrix,
             A: sp.spmatrix,
             initial: tuple[np.ndarray, np.ndarray] | None = None
             ) -> SimulationOutcome:
    """Run to the inhomogeneous steady state or to max_time.

    Stops when the lumped-mass derivative norm (see the module docstring)
    is below stop_tol at a growth state, once the stop counts, or at a
    PTC state.  Otherwise it ends at the first whole growth step at or
    past max_time.  The derivative history holds one entry per growth
    step, the k-th at k tau_g; a PTC finish drops the entries after the
    switch and adds its final check one growth step after it.  M and A
    are the mesh's P1 mass and stiffness matrices.
    """
    if initial is None:
        state = config.model.steady_state()
        initial = initial_condition(mesh, state, config.amplitude,
                                    config.seed)
    w = np.concatenate([np.asarray(x, dtype=float) for x in initial])
    n = len(w) // 2

    stepper = ImexStepper(M, A, config)
    tau_g = stepper.growth_tau
    growth = stepper.growth_solver()
    switch = SwitchRule()
    history: list[tuple[float, float]] = []
    n_steps = max(1, math.ceil(config.max_time / tau_g - 1e-9))
    t = 0.0
    ptc_steps = 0
    switched = None     # (w, history length) at the switch
    status = SimulationStatus.MAX_TIME
    F = stepper.residual(w)
    if not np.isfinite(F).all():    # no step: its solve would refuse F
        status, n_steps = SimulationStatus.DIVERGED, 0
    for step in range(1, n_steps + 1):
        w = w + growth.solve(F)
        t = step * tau_g
        F = stepper.residual(w)
        if not np.isfinite(F).all():
            status = SimulationStatus.DIVERGED
            break
        deriv, size = stepper.norms(w, F)
        history.append((t, deriv))
        if size > DIVERGENCE_NORM:
            status = SimulationStatus.DIVERGED
            break
        if deriv < config.stop_tol and (stepper.sigma_max <= 0
                                        or switched is not None):
            status = SimulationStatus.CONVERGED
            break
        if switched is None:
            if switch(deriv):
                switched = w, len(history)
        elif (ptc_steps == 0 and step < n_steps
              and _stalled(history, config.stop_tol, n_steps - step)):
            # one attempt, from the switch state; a failed one lets the
            # growth march go on from here
            w_switch, kept = switched
            ptc_steps, finished = _ptc_finish(stepper, w_switch)
            if finished is not None:
                w, deriv = finished
                t = (kept + 1) * tau_g      # one growth step past the switch
                del history[kept:]
                history.append((t, deriv))
                status = SimulationStatus.CONVERGED
                break
    residual_norm = None
    if status is not SimulationStatus.DIVERGED:
        residual_norm = float(np.linalg.norm(stepper.residual(w)))
    return SimulationOutcome(u=w[:n], v=w[n:], elapsed=t,
                             history=tuple(history), status=status,
                             ptc_steps=ptc_steps,
                             residual_norm=residual_norm)
