"""Reaction kinetics, steady states, the dispersion relation and the
admissible wavenumber window.

Three classical models are built in: Schnakenberg (activator-depleted),
Gierer-Meinhardt (activator-inhibitor) and Thomas (substrate inhibition).
Each model carries its own analytic Jacobian and uniform steady state.
Note on the Schnakenberg constants: with the standard defaults
a = 0.9, b = 0.1 the uniform state is (1, 0.9), which requires the
constant production `b` in the u-equation and `a` in the v-equation:

    f(u, v) = b - u + u^2 v,     g(u, v) = a - u^2 v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

STEADY_STATE_TOL = 1e-9


class KineticsError(ValueError):
    """Invalid kinetics parameters or failed steady-state solve."""


@dataclass(frozen=True)
class SteadyState:
    u: float
    v: float


@dataclass(frozen=True)
class Jacobian2x2:
    f_u: float
    f_v: float
    g_u: float
    g_v: float

    @property
    def trace(self) -> float:
        return self.f_u + self.g_v

    @property
    def det(self) -> float:
        return self.f_u * self.g_v - self.f_v * self.g_u


@dataclass(frozen=True)
class KineticsModel:
    """Reaction terms (f, g), their uniform `steady_state()` and their
    `jacobian(u, v)`, which is elementwise: on nodal arrays u, v each
    `Jacobian2x2` field broadcasts against them."""
    name: str
    params: dict[str, float]
    f: Callable
    g: Callable
    jacobian: Callable[..., Jacobian2x2]
    steady_state: Callable[[], SteadyState]


def schnakenberg(a: float = 0.9, b: float = 0.1) -> KineticsModel:
    if a <= 0 or b <= 0:
        raise KineticsError("Schnakenberg parameters must be positive")

    def f(u, v):
        return b - u + u * u * v

    def g(u, v):
        return a - u * u * v

    def jacobian(u, v):
        return Jacobian2x2(f_u=-1.0 + 2.0 * u * v, f_v=u * u,
                           g_u=-2.0 * u * v, g_v=-u * u)

    def steady_state():
        u = a + b
        return SteadyState(u, a / (u * u))

    return KineticsModel("schnakenberg", {"a": a, "b": b}, f, g, jacobian,
                         steady_state)


def gierer_meinhardt(a: float = 0.1, b: float = 1.0,
                     k: float = 0.5) -> KineticsModel:
    if a <= 0 or b <= 0 or k < 0:
        raise KineticsError("Gierer-Meinhardt parameters must be positive")

    def f(u, v):
        return a - b * u + u * u / (v * (1.0 + k * u * u))

    def g(u, v):
        return u * u - v

    def jacobian(u, v):
        denom = 1.0 + k * u * u
        return Jacobian2x2(f_u=-b + 2.0 * u / (v * denom * denom),
                           f_v=-u * u / (v * v * denom),
                           g_u=2.0 * u, g_v=-1.0)

    def steady_state():     # g = 0 is v = u^2: solve f(u, u^2) = 0
        return _reduced_newton(f, jacobian, lambda u: (u, u * u, 1.0, 2.0 * u),
                               1.0)

    return KineticsModel("gierer_meinhardt", {"a": a, "b": b, "k": k}, f, g,
                         jacobian, steady_state)


def thomas(a: float = 150.0, b: float = 100.0, K: float = 0.05,
           alpha: float = 1.5, rho: float = 13.0) -> KineticsModel:
    if min(a, b, K, alpha, rho) < 0:
        raise KineticsError("Thomas parameters must be non-negative")

    def h(u, v):
        return rho * u * v / (1.0 + u + K * u * u)

    def f(u, v):
        return a - u - h(u, v)

    def g(u, v):
        return alpha * b - alpha * v - h(u, v)

    def jacobian(u, v):
        denom = 1.0 + u + K * u * u
        h_u = rho * v * (1.0 - K * u * u) / (denom * denom)
        h_v = rho * u / denom
        return Jacobian2x2(f_u=-1.0 - h_u, f_v=-h_v,
                           g_u=-h_u, g_v=-alpha - h_v)

    def steady_state():     # f = g is u = a - alpha b + alpha v
        return _reduced_newton(
            f, jacobian, lambda v: (a - alpha * b + alpha * v, v, alpha, 1.0),
            b / 4.0)

    return KineticsModel("thomas",
                         {"a": a, "b": b, "K": K, "alpha": alpha, "rho": rho},
                         f, g, jacobian, steady_state)


MODEL_BUILDERS = {
    "schnakenberg": schnakenberg,
    "gierer_meinhardt": gierer_meinhardt,
    "thomas": thomas,
}


def make_model(name: str, **params: float) -> KineticsModel:
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise KineticsError(f"unknown kinetics model {name!r}; choose from "
                            f"{sorted(MODEL_BUILDERS)}")
    return builder(**params)


def _reduced_newton(f: Callable, jacobian: Callable, curve: Callable,
                    x: float) -> SteadyState:
    """Damped Newton on f(u(x), v(x)) = 0 in one unknown x > 0, where
    `curve(x)` is (u, v, du/dx, dv/dx) on a curve along which the rest of
    the steady-state system holds exactly.  Stops once
    |f| / max(1, |u|) < STEADY_STATE_TOL."""
    for _ in range(100):
        u, v, du, dv = curve(x)
        fx = f(u, v)
        if abs(fx) / max(1.0, abs(u)) < STEADY_STATE_TOL:
            return SteadyState(u, v)
        J = jacobian(u, v)
        slope = J.f_u * du + J.f_v * dv
        if slope == 0.0:
            raise KineticsError("flat residual in steady-state Newton solve")
        dx = -fx / slope
        step = 1.0
        for _ in range(40):
            xn = x + step * dx
            if xn > 0 and abs(f(*curve(xn)[:2])) < abs(fx):
                break
            step *= 0.5
        x += step * dx
    raise KineticsError("steady-state Newton failed to converge in 100 "
                        "iterations")


def critical_diffusion_ratio(J: Jacobian2x2) -> float:
    """Smallest diffusion ratio at which the dispersion relation acquires
    real roots with d f_u + g_v > 0.

    Root of d^2 f_u^2 + 2 (2 f_v g_u - f_u g_v) d + g_v^2 = 0, selected by
    checking the instability conditions just above each candidate.
    """
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


def dispersion(J: Jacobian2x2, d: float, gamma: float, k2):
    """c(k^2), elementwise on an array of k^2; negative exactly when the
    mode k^2 grows."""
    if np.any(np.asarray(k2) < 0) or gamma <= 0:
        raise ValueError("need k2 >= 0 and gamma > 0")
    return (d * k2 * k2 - gamma * (d * J.f_u + J.g_v) * k2
            + gamma * gamma * J.det)


def growth_rate(J: Jacobian2x2, d: float, gamma: float, k2):
    """sigma(k^2): the largest real part of the roots of
    sigma^2 - T sigma + c = 0, T(k^2) = gamma (f_u + g_v) - (1 + d) k^2,
    elementwise on an array of k^2."""
    k2 = np.asarray(k2, dtype=float)
    T = gamma * J.trace - (1.0 + d) * k2
    disc = T * T - 4.0 * dispersion(J, d, gamma, k2)
    return 0.5 * (T + np.sqrt(np.maximum(disc, 0.0)))


MAX_STABLE_TAU = 1e-2      # the IMEX probe's explicit reactions blow up above


def max_growth_rate(J: Jacobian2x2, d: float, gamma: float) -> float:
    """The largest sigma(k^2) over k^2 >= 0, in closed form.

    sigma tends to -infinity with k^2 and falls wherever the roots are
    complex (it is T/2 there), so the maximum is at k^2 = 0 or at a
    stationary point of the larger real root.  On
    det(sigma I - gamma J + diag(1, d) k^2) = 0, with
    a = sigma - gamma f_u + k^2, that is where a^2 = -gamma^2 f_v g_u / d
    and (d - 1) k^2 = gamma (g_v - f_u) - (1 + d) a; the larger root has
    (1 - d) a > 0, and none exists for d = 1.
    """
    k2 = [0.0]
    p = -J.f_v * J.g_u / d
    if p > 0 and d != 1.0:
        a = math.copysign(gamma * math.sqrt(p), 1.0 - d)
        k2.append(max(0.0, (gamma * (J.g_v - J.f_u) - (1.0 + d) * a)
                      / (d - 1.0)))
    return float(growth_rate(J, d, gamma, k2).max())


def dimensionless_window(J: Jacobian2x2, d: float) -> tuple[float, float]:
    """(L, R) with k2_- = gamma L and k2_+ = gamma R."""
    trace_d = d * J.f_u + J.g_v
    disc = trace_d ** 2 - 4.0 * d * J.det
    if disc <= 0:
        raise KineticsError("dispersion relation has no real roots "
                            f"(discriminant {disc:.3e})")
    sq = math.sqrt(disc)
    return (trace_d - sq) / (2.0 * d), (trace_d + sq) / (2.0 * d)


def wavenumber_window(J: Jacobian2x2, d: float,
                      gamma: float) -> tuple[float, float]:
    """Root interval (k2_-, k2_+) of the dispersion relation."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    L, R = dimensionless_window(J, d)
    return gamma * L, gamma * R

