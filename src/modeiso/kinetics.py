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

_ROOT_GRID = 129     # grid points of `_bracketed_root`'s sign-change scan


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

    def steady_state():
        # g = 0 is v = u^2, where f = a - b u + 1/(1 + k u^2) falls
        # strictly from > 0 at u = a/b to <= -1 at u = (a + 2)/b
        u = _bracketed_root(lambda u: f(u, u * u), a / b, (a + 2.0) / b)
        return SteadyState(u, u * u)

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

    def steady_state():
        # f = g is u = a - alpha (b - v), where f = a or alpha b >= 0 at
        # the larger of v = b - a/alpha (u = 0) and v = 0, and f = -h <= 0
        # at v = b (u = a); so u >= 0 and 1 + u + K u^2 >= 1 in between
        def u(v):
            return a - alpha * (b - v)

        lo = max(0.0, b - a / alpha) if alpha else 0.0
        v = _bracketed_root(lambda v: f(u(v), v), lo, b)
        return SteadyState(u(v), v)

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


def grid_roots(fn: Callable, x: np.ndarray):
    """Yield, in ascending order, each root of fn that the ascending grid
    x shows: each grid point where fn is exactly 0, and each sign change
    between neighbours refined by Brent's method (`brentq`) to scipy's
    smallest relative tolerance.  fn broadcasts over arrays; signs are
    compared, not multiplied, so tiny values of fn cannot underflow."""
    from scipy.optimize import brentq

    sign = np.sign(fn(x))
    change = np.append((sign[1:] == -sign[:-1]) & (sign[1:] != 0), False)
    for i in np.flatnonzero((sign == 0) | change):
        if sign[i] == 0:
            yield float(x[i])
        else:
            yield brentq(fn, x[i], x[i + 1], xtol=np.finfo(float).tiny,
                         rtol=4.0 * np.finfo(float).eps)


def _bracketed_root(fn: Callable, lo: float, hi: float) -> float:
    """The smallest root of fn on [lo, hi] that `grid_roots` finds on a
    grid of _ROOT_GRID points."""
    root = next(grid_roots(fn, np.linspace(lo, hi, _ROOT_GRID)), None)
    if root is None:
        raise KineticsError(f"no steady state in [{lo:.6g}, {hi:.6g}]")
    return root


def critical_diffusion_ratio(J: Jacobian2x2) -> float:
    """The d_c above which the dispersion relation has real roots with
    d f_u + g_v > 0: they are real where q(d) = (d f_u + g_v)^2 - 4 d det
    = d^2 f_u^2 + 2 (2 f_v g_u - f_u g_v) d + g_v^2 > 0, and for
    f_u > 0 > g_v, d f_u + g_v vanishes at -g_v / f_u, the geometric mean
    of the roots of q; so d_c is the larger root (Murray, Mathematical
    Biology II, ch. 2)."""
    aa = J.f_u ** 2
    bb = 2.0 * (2.0 * J.f_v * J.g_u - J.f_u * J.g_v)
    disc = bb * bb - 4.0 * aa * J.g_v ** 2
    if not (J.f_u > 0 and disc >= 0 and bb < 0):
        raise KineticsError("no critical diffusion ratio: q(d) has no "
                            "two positive roots with f_u > 0")
    return (-bb + math.sqrt(disc)) / (2 * aa)


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


# An unmeasured bound: tau sets only the growth step when nothing grows
# (sigma_max = 0).
MAX_STABLE_TAU = 1e-2


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

