"""Analytic Neumann spectra used as oracles: rectangle, sphere surface
and sphere bulk (spherical Bessel derivative roots)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import spherical_jn

SCAN_STEP = 0.05    # grid step of the sign-change scan for roots of j_l'
ROOT_XTOL = 1e-10   # bisection stops once a bracket is this narrow


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


def _brackets(l: int, k_max: float):
    """Scan j_l' on (0, k_max]: each grid point where it is exactly 0 and
    each sign change, as arrays (l, lo, hi, j_l'(lo))."""
    # start past the origin where j_l' ~ x^(l-1) has a known sign; the
    # grid accumulates SCAN_STEP and is evaluated in one call
    xs = [SCAN_STEP]
    while xs[-1] + SCAN_STEP <= k_max + 1e-12:
        xs.append(xs[-1] + SCAN_STEP)
    xs = np.array(xs)
    fs = spherical_jn(l, xs, derivative=True)
    keep = (fs[:-1] == 0.0) | (fs[:-1] * fs[1:] < 0)
    return np.full(keep.sum(), l), xs[:-1][keep], xs[1:][keep], fs[:-1][keep]


def _bisect(brackets) -> list[list[float]]:
    """Roots of j_l' in the brackets of every degree, bisected together
    with one `spherical_jn` call per step; a bracket end or midpoint where
    j_l' is exactly 0 is its root.  One root list per `_brackets` entry."""
    l, lo, hi, flo = (np.concatenate(c) for c in zip(*brackets))
    root = np.where(flo == 0.0, lo, np.nan)
    while True:
        idx = np.flatnonzero(np.isnan(root) & (hi - lo > ROOT_XTOL))
        if not idx.size:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        fmid = spherical_jn(l[idx], mid, derivative=True)
        root[idx[fmid == 0.0]] = mid[fmid == 0.0]
        left = flo[idx] * fmid < 0
        hi[idx[left]] = mid[left]
        lo[idx[~left]], flo[idx[~left]] = mid[~left], fmid[~left]
    root = np.where(np.isnan(root), 0.5 * (lo + hi), root)
    ends = np.cumsum([len(b[1]) for b in brackets])[:-1]
    return [part.tolist() for part in np.split(root, ends)]


def bessel_derivative_roots(l: int, k_max: float = 20.0) -> list[float]:
    """Positive roots of j_l'(x) on (0, k_max], by bracketing + bisection."""
    return _bisect([_brackets(l, k_max)])[0]


def sphere_bulk_spectrum(count: int,
                         k_max: float = 20.0) -> list[AnalyticEigenvalue]:
    """Neumann eigenvalues of the unit ball: lambda = k^2 with j_l'(k) = 0.

    Level l contributes multiplicity 2l+1; the constant mode is labelled
    (0, 1) following the convention that k_{0,1} = 0.
    """
    brackets = []
    for l in itertools.count():
        degree = _brackets(l, k_max)
        if not degree[1].size and l > 0:
            break   # from l = 1 on, the first root of j_l' grows with l
        brackets.append(degree)
    entries = [AnalyticEigenvalue(0.0, 1, (0, 1, 0))]
    for l, roots in enumerate(_bisect(brackets)):
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

