"""Search for (d, gamma) that put exactly one Laplacian eigenvalue inside
the admissible wavenumber window.

The walk starts at d = d_c + eps with eps about d_c/5 and adjusts gamma
to slide the window over the target, narrowing the window (shrinking
eps towards d_c) whenever unrelated eigenvalues are co-excited.  The
window scales linearly with gamma, so sliding and narrowing are
independent knobs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .kinetics import (Jacobian2x2, critical_diffusion_ratio,
                       dimensionless_window, wavenumber_window)
from .reference_spectra import eigenvalue_array

EPS_SHRINK_DIVISOR = 100.0   # eps decreases by d_c / 100 per co-excitation
EPS_FLOOR_DIVISOR = 1000.0   # never below d_c / 1000
MAX_GAMMA_STEP = 64.0


class IsolationStatus(enum.Enum):
    UNIQUE = "unique"
    CLUSTERED = "clustered"
    FAILED = "failed"


class IsolationError(ValueError):
    """Bad target or kinetics incapable of a Turing instability."""


@dataclass(frozen=True)
class IsolationResult:
    status: IsolationStatus
    d: float
    gamma: float
    window: tuple[float, float]
    excited_indices: tuple[int, ...]
    d_c: float
    trace: tuple[tuple[float, float, tuple[float, float]], ...] = field(
        default=())

    def as_dict(self) -> dict:
        return {"status": self.status.value, "d": self.d,
                "gamma": self.gamma, "window": list(self.window),
                "excited": list(self.excited_indices), "d_c": self.d_c,
                "trace": [[d, g, list(w)] for d, g, w in self.trace]}


def _inside(values: np.ndarray, window: tuple[float, float]) -> list[int]:
    lo, hi = window
    return [int(i) for i in np.nonzero((values > lo) & (values < hi))[0]]


def verify_isolation(spectrum, J: Jacobian2x2, d: float,
                     gamma: float) -> list[int]:
    """Indices of spectrum values strictly inside the window for (d, gamma).

    Pure audit used by tests and the CLI to validate user-supplied pairs.
    """
    return _inside(eigenvalue_array(spectrum), wavenumber_window(J, d, gamma))


def _status(excited) -> IsolationStatus:
    """UNIQUE for one excited index, CLUSTERED for several, FAILED for none."""
    return (IsolationStatus.UNIQUE if len(excited) == 1
            else IsolationStatus.CLUSTERED if excited
            else IsolationStatus.FAILED)


def pair_isolation(spectrum, J: Jacobian2x2, d: float,
                   gamma: float) -> IsolationResult:
    """The isolation result of a given (d, gamma): what its window excites."""
    excited = verify_isolation(spectrum, J, d, gamma)
    return IsolationResult(_status(excited), d, gamma,
                           wavenumber_window(J, d, gamma), tuple(excited),
                           critical_diffusion_ratio(J))


def isolate_mode(spectrum, target_index: int, J: Jacobian2x2,
                 gamma0: float = 10.0, eps0: float | None = None,
                 max_iters: int = 500, delta: float = 1e-3
                 ) -> IsolationResult:
    """Find (d, gamma) isolating the target eigenvalue in the window.

    Returns UNIQUE when only the target is excited, CLUSTERED when the
    target can only be excited together with eigenvalues too close to
    separate (either within relative gap `delta`, or inside the
    narrowest window reachable at the eps floor), FAILED otherwise.
    """
    values = eigenvalue_array(spectrum)
    if not 0 <= target_index < len(values):
        raise IsolationError(f"target index {target_index} out of range "
                             f"for spectrum of size {len(values)}")
    target = values[target_index]
    if target <= 1e-12:
        raise IsolationError("cannot isolate the trivial constant mode")
    if J.trace >= 0 or J.det <= 0:
        raise IsolationError("kinetics are not Turing-capable: the uniform "
                             "state is unstable without diffusion")
    if gamma0 <= 0:
        raise IsolationError("gamma0 must be positive")

    d_c = critical_diffusion_ratio(J)
    eps = d_c / 5.0 if eps0 is None else eps0
    if eps <= 0:
        raise IsolationError("eps0 must be positive")
    eps_floor = d_c / EPS_FLOOR_DIVISOR
    eps = max(eps, eps_floor)
    gamma = float(gamma0)

    # eigenvalues within relative gap delta of the target form its cluster
    cluster = {int(i) for i in np.nonzero(
        np.abs(values - target) <= delta * max(abs(target), 1e-30))[0]}

    step = 1.0
    prev_direction = 0
    same_direction_run = 0
    trace: list[tuple[float, float, tuple[float, float]]] = []
    centered = False

    d = d_c + eps
    window = wavenumber_window(J, d, gamma)
    for _ in range(max_iters):
        trace.append((d, gamma, window))
        excited = _inside(values, window)

        if target_index in excited:
            extraneous = [i for i in excited if i not in cluster]
            if not extraneous:
                # prefer the window centered on the target wavenumber
                # (k-scale), which maximizes the linear growth rate of the
                # isolated mode; keep it only if it still isolates
                gamma_c = _centering_gamma(J, d, target)
                window_c = wavenumber_window(J, d, gamma_c)
                excited_c = _inside(values, window_c)
                if target_index in excited_c and all(
                        i in cluster for i in excited_c):
                    gamma, window, excited = gamma_c, window_c, excited_c
                    trace.append((d, gamma, window))
                return IsolationResult(_status(excited), d, gamma, window,
                                       tuple(excited), d_c, tuple(trace))
            if eps > eps_floor:
                eps = max(eps - d_c / EPS_SHRINK_DIVISOR, eps_floor)
                d = d_c + eps
                window = wavenumber_window(J, d, gamma)
                continue
            # narrowest reachable window: center it on the target once and
            # accept the residual co-excited set if it cannot be avoided
            L, R = dimensionless_window(J, d)
            if not centered:
                centered = True
                gamma = 2.0 * target / (L + R)
                window = (gamma * L, gamma * R)
                continue
            ratio = R / L
            unavoidable = all(1.0 / ratio < values[i] / target < ratio
                              for i in extraneous)
            if unavoidable:
                return IsolationResult(IsolationStatus.CLUSTERED, d, gamma,
                                       window, tuple(excited), d_c,
                                       tuple(trace))
            # an avoidable co-excitation remains: fall through to gamma walk
            direction = -1 if any(values[i] < target for i in extraneous) \
                else 1
        else:
            direction = -1 if target <= window[0] else 1

        if prev_direction and direction != prev_direction:
            step = max(step / 2.0, 1e-9)
            same_direction_run = 0
        elif direction == prev_direction:
            same_direction_run += 1
            if same_direction_run >= 10:
                step = min(step * 2.0, MAX_GAMMA_STEP)
                same_direction_run = 0
        prev_direction = direction

        new_gamma = gamma + direction * step
        while new_gamma <= 0:
            step /= 2.0
            new_gamma = gamma + direction * step
        gamma = new_gamma
        window = wavenumber_window(J, d, gamma)

    excited = _inside(values, window)
    return IsolationResult(IsolationStatus.FAILED, d, gamma, window,
                           tuple(excited), d_c, tuple(trace))


def _centering_gamma(J: Jacobian2x2, d: float, target: float) -> float:
    """Gamma putting the target at the center of (k_-, k_+) in k-scale."""
    L, R = dimensionless_window(J, d)
    return (2.0 * math.sqrt(target) / (math.sqrt(L) + math.sqrt(R))) ** 2
