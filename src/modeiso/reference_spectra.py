"""Analytic Neumann spectra used as oracles: rectangle, sphere surface,
sphere bulk (spherical Bessel derivative roots) and real spherical
harmonics for pattern comparison."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lpmv, spherical_jn


@dataclass(frozen=True)
class AnalyticEigenvalue:
    value: float
    multiplicity: int
    label: tuple


def eigenvalue_array(entries) -> np.ndarray:
    """Plain array of eigenvalues from analytic entries or a Spectrum."""
    if hasattr(entries, "eigenvalues"):
        return np.asarray(entries.eigenvalues, dtype=float)
    out = []
    for e in entries:
        out.append(e.value if isinstance(e, AnalyticEigenvalue) else float(e))
    return np.asarray(out, dtype=float)


def rectangle_neumann(lx: float, ly: float, count: int
                      ) -> list[AnalyticEigenvalue]:
    """lambda = pi^2 (m^2/lx^2 + n^2/ly^2) for m, n >= 0, sorted."""
    if lx <= 0 or ly <= 0:
        raise ValueError("rectangle sides must be positive")
    # enough index range to cover `count` modes
    bound = count + 2
    entries = []
    for m in range(bound):
        for n in range(bound):
            lam = math.pi ** 2 * (m ** 2 / lx ** 2 + n ** 2 / ly ** 2)
            entries.append(AnalyticEigenvalue(lam, 1, (m, n)))
    entries.sort(key=lambda e: (e.value, e.label))
    return entries[:count]


def sphere_surface_spectrum(count: int) -> list[AnalyticEigenvalue]:
    """lambda = l(l+1), each level expanded to its 2l+1 harmonics."""
    entries = []
    level = 0
    while len(entries) < count:
        lam = float(level * (level + 1))
        for m in range(-level, level + 1):
            entries.append(AnalyticEigenvalue(lam, 2 * level + 1, (level, m)))
        level += 1
    return entries[:count]


def _bisect_root(fn, lo: float, hi: float, xtol: float = 1e-10) -> float:
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("no sign change in bracket")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def bessel_derivative_roots(l: int, k_max: float = 20.0,
                            scan_step: float = 0.05) -> list[float]:
    """Positive roots of j_l'(x) on (0, k_max], by bracketing + bisection."""
    def deriv(x: float) -> float:
        return float(spherical_jn(l, x, derivative=True))

    # start past the origin where j_l' ~ x^(l-1) has a known sign; the
    # grid accumulates scan_step and is evaluated in one call
    xs = [scan_step]
    while xs[-1] + scan_step <= k_max + 1e-12:
        xs.append(xs[-1] + scan_step)
    fs = spherical_jn(l, np.array(xs), derivative=True)
    roots = []
    for i in range(len(xs) - 1):
        if fs[i] == 0.0:
            roots.append(xs[i])
        elif fs[i] * fs[i + 1] < 0:
            roots.append(_bisect_root(deriv, xs[i], xs[i + 1]))
    return roots


def sphere_bulk_spectrum(count: int, k_max: float = 20.0,
                         scan_step: float = 0.05) -> list[AnalyticEigenvalue]:
    """Neumann eigenvalues of the unit ball: lambda = k^2 with j_l'(k) = 0.

    Level l contributes multiplicity 2l+1; the constant mode is labelled
    (0, 1) following the convention that k_{0,1} = 0.
    """
    entries = [AnalyticEigenvalue(0.0, 1, (0, 1, 0))]
    for l in itertools.count():
        roots = bessel_derivative_roots(l, k_max=k_max, scan_step=scan_step)
        if not roots and l > 0:
            break   # from l = 1 on, the first root of j_l' grows with l
        n0 = 2 if l == 0 else 1  # the l = 0 count starts after the k = 0 root
        for idx, k in enumerate(roots):
            lam = k * k
            for m in range(-l, l + 1):
                entries.append(
                    AnalyticEigenvalue(lam, 2 * l + 1, (l, n0 + idx, m)))
    entries.sort(key=lambda e: (e.value, e.label))
    if len(entries) < count:
        raise ValueError(f"scan range (0, {k_max}] yields only "
                         f"{len(entries)} modes; increase k_max")
    return entries[:count]


def real_spherical_harmonic(l: int, m: int, point) -> float:
    """Real-form spherical harmonic Y_l^m at a point on the unit sphere."""
    if not 0 <= l <= 4:
        raise ValueError("l must be in 0..4")
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    p = np.asarray(point, dtype=float)
    r = float(np.linalg.norm(p))
    if abs(r - 1.0) > 1e-9:
        raise ValueError(f"point must lie on the unit sphere, |p| = {r}")
    x, y, z = p
    theta_cos = z / r
    phi = math.atan2(y, x)
    am = abs(m)
    norm = math.sqrt((2 * l + 1) / (4 * math.pi)
                     * math.factorial(l - am) / math.factorial(l + am))
    leg = float(lpmv(am, l, theta_cos))
    if m == 0:
        return norm * leg
    # (-1)^m cancels the Condon-Shortley phase of lpmv
    angular = math.cos(am * phi) if m > 0 else math.sin(am * phi)
    return (-1.0) ** am * math.sqrt(2.0) * norm * angular * leg
