"""Analytic Neumann spectra used as oracles: rectangle, sphere surface
and sphere bulk (spherical Bessel derivative roots)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import spherical_jn

from .kinetics import grid_roots

SCAN_STEP = 0.05    # grid step of the sign-change scan for roots of j_l'


@dataclass(frozen=True)
class AnalyticEigenvalue:
    value: float
    multiplicity: int
    label: tuple


def eigenvalue_array(entries: list[AnalyticEigenvalue]) -> np.ndarray:
    """Plain array of the eigenvalues of analytic entries."""
    return np.array([e.value for e in entries], dtype=float)


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


def bessel_derivative_roots(l: int, k_max: float = 20.0) -> list[float]:
    """Positive roots of j_l'(x) on (0, k_max], by `grid_roots` on a scan
    of step SCAN_STEP.  The scan starts past the origin, where
    j_l' ~ x^(l-1) has a known sign."""
    x = SCAN_STEP * np.arange(1, math.floor(k_max / SCAN_STEP + 1e-9) + 1)
    return list(grid_roots(
        lambda k: spherical_jn(l, k, derivative=True), x))


def sphere_bulk_spectrum(count: int,
                         k_max: float = 20.0) -> list[AnalyticEigenvalue]:
    """Neumann eigenvalues of the unit ball: lambda = k^2 with j_l'(k) = 0.

    Level l contributes multiplicity 2l+1; the constant mode is labelled
    (0, 1) following the convention that k_{0,1} = 0.
    """
    entries = [AnalyticEigenvalue(0.0, 1, (0, 1, 0))]
    for l in itertools.count():
        roots = bessel_derivative_roots(l, k_max)
        if not roots and l > 0:
            break   # from l = 1 on, the first root of j_l' grows with l
        n0 = 2 if l == 0 else 1  # the l = 0 count starts after the k = 0 root
        entries += [AnalyticEigenvalue(k * k, 2 * l + 1, (l, n0 + idx, m))
                    for idx, k in enumerate(roots)
                    for m in range(-l, l + 1)]
    entries.sort(key=lambda e: (e.value, e.label))
    if len(entries) < count:
        raise ValueError(f"scan range (0, {k_max}] yields only "
                         f"{len(entries)} modes; increase k_max")
    return entries[:count]
