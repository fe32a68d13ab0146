"""Choose (d, gamma) that put exactly one Laplacian eigenvalue cluster
inside the admissible wavenumber window.

At d = d_c + eps the window is (gamma L, gamma R), with (L, R) fixed by
d, so an eigenvalue x is excited iff x/R < gamma < x/L.  With b the
largest eigenvalue below the target t outside its cluster (0 if none)
and a the smallest above it (infinity if none), the gammas that excite
t and neither neighbour form the interval
(max(t/R, b/L), min(t/L, a/R)), which is non-empty iff R/L < a/b.
A smaller eps narrows R/L, so eps walks down a ladder from
d_c/EPS_START_DIVISOR in steps of d_c/EPS_SHRINK_DIVISOR to the floor
d_c/EPS_FLOOR_DIVISOR, stopping at the first rung whose interval
isolates the target.

Every function takes the eigenvalues as a plain sorted array, such as
`Spectrum.eigenvalues`.  A window that ends above the largest of them
may excite modes that were not computed, so no result is given for it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .kinetics import (Jacobian2x2, critical_diffusion_ratio,
                       dimensionless_window, wavenumber_window)

EPS_START_DIVISOR = 5.0      # the ladder starts at eps = d_c / 5
EPS_SHRINK_DIVISOR = 100.0   # eps decreases by d_c / 100 per rung
EPS_FLOOR_DIVISOR = 1000.0   # never below d_c / 1000
# eigenvalues within this relative gap of the target form its cluster
CLUSTER_RTOL = 1e-3


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
    # one (d, gamma, window) per rung of the eps ladder tried
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


def _certify(values: np.ndarray, window: tuple[float, float]) -> None:
    if window[1] > values[-1]:
        raise IsolationError(
            f"the window ({window[0]:.6g}, {window[1]:.6g}) reaches past the "
            f"largest of {len(values)} eigenvalues, {values[-1]:.6g}, so "
            "uncomputed modes may be excited; raise eigensolver.count")


def _status(excited) -> IsolationStatus:
    """UNIQUE for one excited index, CLUSTERED for several, FAILED for none."""
    return (IsolationStatus.UNIQUE if len(excited) == 1
            else IsolationStatus.CLUSTERED if excited
            else IsolationStatus.FAILED)


def pair_isolation(values: np.ndarray, J: Jacobian2x2, d: float,
                   gamma: float) -> IsolationResult:
    """The isolation result of a given (d, gamma): the eigenvalues
    strictly inside its window are the excited ones."""
    window = wavenumber_window(J, d, gamma)
    _certify(values, window)
    excited = _inside(values, window)
    return IsolationResult(_status(excited), d, gamma, window,
                           tuple(excited), critical_diffusion_ratio(J))


def isolate_mode(values: np.ndarray, target_index: int,
                 J: Jacobian2x2) -> IsolationResult:
    """Find (d, gamma) isolating the target eigenvalue in the window.

    Returns UNIQUE when only the target is excited, and CLUSTERED when
    the target is excited together with eigenvalues within relative gap
    CLUSTER_RTOL of it, or, if no rung of the eps ladder isolates it,
    with whatever the k-centred window at the eps floor excites.
    """
    if not 0 <= target_index < len(values):
        raise IsolationError(f"target index {target_index} out of range "
                             f"for spectrum of size {len(values)}")
    target = values[target_index]
    if target <= 1e-12:
        raise IsolationError("cannot isolate the trivial constant mode")
    if J.trace >= 0 or J.det <= 0:
        raise IsolationError("kinetics are not Turing-capable: the uniform "
                             "state is unstable without diffusion")

    d_c = critical_diffusion_ratio(J)
    eps = d_c / EPS_START_DIVISOR
    eps_floor = d_c / EPS_FLOOR_DIVISOR

    # b and a are the nearest eigenvalues outside the target's cluster
    in_cluster = np.abs(values - target) <= CLUSTER_RTOL * target
    b = values[~in_cluster & (values < target)].max(initial=0.0)
    a = values[~in_cluster & (values > target)].min(initial=math.inf)

    trace: list[tuple[float, float, tuple[float, float]]] = []
    while True:
        d = d_c + eps
        L, R = dimensionless_window(J, d)
        # x is excited iff x/R < gamma < x/L, so the gammas exciting the
        # target and neither neighbour form the interval (lo, hi)
        lo, hi = max(target / R, b / L), min(target / L, a / R)
        # the gamma centring the target in k-scale maximizes its linear
        # growth rate; keep it unless it leaves a non-empty (lo, hi)
        gamma = (2.0 * math.sqrt(target) / (math.sqrt(L) + math.sqrt(R))) ** 2
        if lo < hi and not lo < gamma < hi:
            gamma = math.sqrt(lo * hi)
        window = wavenumber_window(J, d, gamma)
        trace.append((d, gamma, window))
        excited = _inside(values, window)
        isolated = target_index in excited and in_cluster[excited].all()
        if isolated or eps <= eps_floor:
            _certify(values, window)
            status = _status(excited) if isolated \
                else IsolationStatus.CLUSTERED
            return IsolationResult(status, d, gamma, window, tuple(excited),
                                   d_c, tuple(trace))
        eps = max(eps - d_c / EPS_SHRINK_DIVISOR, eps_floor)
